//! Parameter metadata, registry, and the store seam the engine plugs into.

use zi_tensor::Tensor;
use zi_types::{Error, Result};

use crate::gpt::{Phase, RunObserver};

/// Index of a parameter within a [`ParamRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub usize);

/// How a parameter's deterministic initial value is produced.
#[derive(Debug, Clone)]
pub(crate) enum InitKind {
    /// Seeded uniform noise (scale 0 = zeros) plus a constant offset.
    Uniform {
        /// Stream seed.
        seed: u64,
        /// Uniform amplitude; zero means zero-init.
        scale: f32,
        /// Constant added after init (1.0 for layernorm gamma).
        offset: f32,
    },
    /// Rows `rows` (in order) × columns `cols` of a *virtual* `full`
    /// uniform matrix. Used by tensor-slicing model parallelism so that
    /// every rank's slices tile the unsliced initialization exactly.
    Slice {
        /// Stream seed of the virtual full tensor.
        seed: u64,
        /// Uniform amplitude of the virtual full tensor.
        scale: f32,
        /// `[rows, cols]` of the virtual tensor.
        full: [usize; 2],
        /// This slice's row ranges, stacked in order.
        rows: Vec<std::ops::Range<usize>>,
        /// This slice's column range.
        cols: std::ops::Range<usize>,
    },
}

/// Static description of one parameter tensor.
#[derive(Debug, Clone)]
pub struct ParamMeta {
    /// Registry index.
    pub id: ParamId,
    /// Hierarchical name, e.g. `"block3.attn.qkv.weight"`.
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<usize>,
    /// Initialization recipe.
    pub(crate) init: InitKind,
}

impl ParamMeta {
    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Materialize the deterministic initial value of this parameter.
    ///
    /// Every rank computes identical values, which is how the reproduction
    /// initializes shards without ever materializing the full model on one
    /// rank (Sec. 7.2): a rank can initialize just its own shard by slicing
    /// the stream.
    pub fn init_tensor(&self) -> Tensor {
        match &self.init {
            InitKind::Uniform { seed, scale, offset } => {
                let mut t = if *scale == 0.0 {
                    Tensor::zeros(&self.shape)
                } else {
                    Tensor::randn_seeded(&self.shape, *seed, *scale)
                };
                if *offset != 0.0 {
                    for v in t.data_mut() {
                        *v += offset;
                    }
                }
                t
            }
            InitKind::Slice { seed, scale, full, rows, cols } => {
                let whole = Tensor::randn_seeded(full, *seed, *scale);
                let row = |r: usize| &whole.data()[r * full[1] + cols.start..r * full[1] + cols.end];
                let slice = rows.iter().cloned().flatten().flat_map(row).copied().collect();
                Tensor::from_vec(&self.shape, slice)
                    .expect("slice shape must match registered shape")
            }
        }
    }
}

/// Ordered collection of every parameter in a model.
#[derive(Debug, Default)]
pub struct ParamRegistry {
    metas: Vec<ParamMeta>,
}

impl ParamRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter and return its id.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        shape: &[usize],
        seed: u64,
        scale: f32,
        offset: f32,
    ) -> ParamId {
        self.register_with(name, shape, InitKind::Uniform { seed, scale, offset })
    }

    /// Register rows `rows` (stacked in order) × columns `cols` of a
    /// virtual `full` uniform matrix — one rank's slice under tensor
    /// slicing. The registered shape is `[Σ rows, cols.len()]`; a slice
    /// that is the whole matrix in order registers as the matrix itself.
    pub(crate) fn register_slice(
        &mut self,
        name: impl Into<String>,
        full: [usize; 2],
        rows: Vec<std::ops::Range<usize>>,
        cols: std::ops::Range<usize>,
        seed: u64,
        scale: f32,
    ) -> ParamId {
        assert!(rows.iter().all(|r| r.end <= full[0]) && cols.end <= full[1], "slice beyond virtual tensor");
        if cols == (0..full[1]) && rows.iter().cloned().flatten().eq(0..full[0]) {
            return self.register(name, &full, seed, scale, 0.0);
        }
        let shape = [rows.iter().map(|r| r.len()).sum(), cols.len()];
        self.register_with(name, &shape, InitKind::Slice { seed, scale, full, rows, cols })
    }

    fn register_with(
        &mut self,
        name: impl Into<String>,
        shape: &[usize],
        init: InitKind,
    ) -> ParamId {
        let id = ParamId(self.metas.len());
        self.metas.push(ParamMeta { id, name: name.into(), shape: shape.to_vec(), init });
        id
    }

    /// Metadata for `id`.
    pub fn meta(&self, id: ParamId) -> &ParamMeta {
        &self.metas[id.0]
    }

    /// All metadata in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &ParamMeta> {
        self.metas.iter()
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Total elements across all parameters.
    pub fn total_numel(&self) -> usize {
        self.metas.iter().map(|m| m.numel()).sum()
    }

    /// Look up a parameter by name (test convenience).
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.metas.iter().find(|m| m.name == name).map(|m| m.id)
    }
}

/// One module's execution unit in the runner's plan: the fetch/release
/// granularity of ZeRO-3.
#[derive(Debug, Clone)]
pub struct ModulePlan {
    /// Module name for tracing.
    pub name: String,
    /// Parameters owned by the module (gathered around its execution).
    pub own_params: Vec<ParamId>,
    /// External parameters used by this module but owned elsewhere
    /// (Sec. 7.1.1), e.g. the tied embedding weight in the LM head.
    pub external_params: Vec<ParamId>,
}

impl ModulePlan {
    fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        self.own_params.iter().chain(&self.external_params).copied()
    }
}

/// The seam between model execution and the training engine.
///
/// `get` must return the *full* (gathered) parameter tensor, in the dtype
/// the store keeps it in — fp16 under mixed precision, which the kernels
/// that read a parameter decode as they consume it; `release` tells the
/// store the module is done with it; `add_grad` deposits the
/// module's locally computed full gradient. A classic data-parallel engine
/// keeps everything resident; the ZeRO-Infinity engine gathers from
/// partitions/offload on `get`, re-partitions on `release`, and
/// reduce-scatters + offloads on `add_grad`.
///
/// Stores implement this trait; model code does not call it. Every
/// runner reaches a store through a [`Bracket`], which is the one place
/// that pairs each `get` with its `release` on every path.
pub trait ParamStore {
    /// Gather and return the full parameter tensor in its storage dtype.
    fn get(&mut self, id: ParamId) -> Result<Tensor>;

    /// The runner is done with this parameter for the current module pass.
    fn release(&mut self, id: ParamId) -> Result<()>;

    /// Deposit a locally computed gradient for `id` (accumulated if called
    /// multiple times in one step, as happens for external parameters).
    fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()>;

    /// Advance notice that these parameters will be needed soon, in order.
    /// Prefetching stores overlap their fetch with current compute.
    fn hint_upcoming(&mut self, _ids: &[ParamId]) {}

    /// The tracer this store records into, if it traces at all. Module
    /// code (e.g. tiled operators) uses it to span its compute without
    /// depending on a concrete store type.
    fn tracer(&self) -> Option<&zi_trace::Tracer> {
        None
    }
}

/// The paper's four hooks (Sec. 7.1), written once. A runner names a
/// module of its plan and hands in the arithmetic; the bracket does the
/// rest: *observe → hint → gather own + external parameters → compute →
/// deposit gradients → drop the handles → release → observe*. Three
/// things every runner used to keep by convention hold here by
/// construction:
///
/// * the handles are dropped before the release, so the store holds the
///   only one and can recycle the gathered storage;
/// * what was gathered is released on the error path too, whether a
///   later `get` or the arithmetic failed;
/// * a parameter stays gathered across modules only inside
///   [`Bracket::held`], which is how an external parameter (Sec. 7.1.1)
///   is kept from its user's forward to its backward.
pub struct Bracket<'a> {
    store: &'a mut dyn ParamStore,
    obs: &'a mut dyn RunObserver,
    plans: &'a [ModulePlan],
    window: usize,
    /// Gathered parameters by module index, innermost last.
    resident: Vec<(usize, Vec<Tensor>)>,
}

impl<'a> Bracket<'a> {
    /// Bracket the modules of `plans` (in forward order) over `store`,
    /// announcing `window` future modules before each one.
    pub fn new(
        store: &'a mut dyn ParamStore,
        obs: &'a mut dyn RunObserver,
        plans: &'a [ModulePlan],
        window: usize,
    ) -> Self {
        Bracket { store, obs, plans, window, resident: Vec::new() }
    }

    /// One module's forward: `compute` sees its parameters, own then
    /// external, in plan order.
    pub fn forward<T>(
        &mut self,
        module: usize,
        compute: impl FnOnce(&[Tensor]) -> Result<T>,
    ) -> Result<T> {
        self.run(module, Phase::PreForward, true, |p| Ok((compute(p)?, Vec::new())))
    }

    /// One module's backward: `compute` returns its result (the input
    /// gradient) and one parameter gradient per parameter, in plan order;
    /// they are deposited before the parameters are released.
    pub fn backward<T>(
        &mut self,
        module: usize,
        compute: impl FnOnce(&[Tensor]) -> Result<(T, Vec<Tensor>)>,
    ) -> Result<T> {
        self.run(module, Phase::PreBackward, true, compute)
    }

    /// Backward of a module whose gradients need no parameter value (an
    /// embedding's scatter-add, a bias's column sums): hooks and deposit,
    /// nothing gathered.
    pub fn backward_unfetched(
        &mut self,
        module: usize,
        compute: impl FnOnce() -> Result<Vec<Tensor>>,
    ) -> Result<()> {
        self.run(module, Phase::PreBackward, false, |_| Ok(((), compute()?)))
    }

    /// Keep `module`'s parameters gathered for the whole of `body`: its
    /// own [`Bracket::forward`] / [`Bracket::backward`] inside find them
    /// resident and gather nothing.
    pub fn held<T>(
        &mut self,
        module: usize,
        body: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let plan = self.plan(module)?;
        let mut params = Vec::with_capacity(plan.ids().count());
        let gathered =
            plan.ids().try_for_each(|id| self.store.get(id).map(|t| params.push(t)));
        let fetched = params.len();
        self.resident.push((module, params));
        let mut out = gathered.and_then(|()| body(self));
        self.resident.pop();
        for id in plan.ids().take(fetched) {
            let released = self.store.release(id);
            if out.is_ok() {
                out = released.and(out);
            }
        }
        out
    }

    fn plan(&self, module: usize) -> Result<&'a ModulePlan> {
        self.plans.get(module).ok_or_else(|| {
            Error::InvalidArgument(format!("module {module} of a {}-module plan", self.plans.len()))
        })
    }

    fn run<T>(
        &mut self,
        module: usize,
        pre: Phase,
        gather: bool,
        compute: impl FnOnce(&[Tensor]) -> Result<(T, Vec<Tensor>)>,
    ) -> Result<T> {
        let plan = self.plan(module)?;
        let forward = pre == Phase::PreForward;
        self.obs.module_event(pre, &plan.name);
        self.hint(module, forward);
        let body = |ctx: &mut Self| {
            let held = ctx.resident.iter().rfind(|(m, _)| *m == module);
            let (out, grads) = compute(held.map_or(&[][..], |(_, params)| &params[..]))?;
            let want = if forward { 0 } else { plan.ids().count() };
            if grads.len() != want {
                let got = grads.len();
                return Err(Error::shape(format!("{}: {got} gradients, {want} due", plan.name)));
            }
            for (id, grad) in plan.ids().zip(&grads) {
                ctx.store.add_grad(id, grad)?;
            }
            Ok(out)
        };
        let out = if gather && !self.resident.iter().any(|(m, _)| *m == module) {
            self.held(module, body)
        } else {
            body(self)
        }?;
        let post = if forward { Phase::PostForward } else { Phase::PostBackward };
        self.obs.module_event(post, &plan.name);
        Ok(out)
    }

    /// Announce the next `window` modules in the direction of travel.
    fn hint(&mut self, module: usize, forward: bool) {
        let (before, after) = self.plans.split_at(module);
        let upcoming: Vec<ParamId> = if forward {
            after.iter().skip(1).take(self.window).flat_map(ModulePlan::ids).collect()
        } else {
            before.iter().rev().take(self.window).flat_map(ModulePlan::ids).collect()
        };
        if !upcoming.is_empty() {
            self.store.hint_upcoming(&upcoming);
        }
    }
}

/// Baseline store: every parameter fully resident, gradients accumulated
/// in place. This is the "data parallel" row of Table 2.
#[derive(Debug)]
pub struct DenseStore {
    params: Vec<Tensor>,
    grads: Vec<Option<Tensor>>,
}

impl DenseStore {
    /// Initialize all parameters from the registry.
    pub fn new(registry: &ParamRegistry) -> Self {
        let params: Vec<Tensor> = registry.iter().map(|m| m.init_tensor()).collect();
        let grads = vec![None; params.len()];
        DenseStore { params, grads }
    }

    /// Direct access to a parameter (test/optimizer convenience).
    pub fn param(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Mutable access to a parameter.
    pub fn param_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// Gradient accumulated for `id` this step, if any.
    pub fn grad(&self, id: ParamId) -> Option<&Tensor> {
        self.grads[id.0].as_ref()
    }

    /// Clear all gradients (start of a new step).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            *g = None;
        }
    }
}

impl ParamStore for DenseStore {
    fn get(&mut self, id: ParamId) -> Result<Tensor> {
        Ok(self.params[id.0].clone())
    }

    fn release(&mut self, _id: ParamId) -> Result<()> {
        Ok(())
    }

    fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
        match &mut self.grads[id.0] {
            Some(g) => g.add_assign(grad)?,
            slot @ None => *slot = Some(grad.clone()),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ModulePlan {
        /// All parameters this module needs resident, own + external.
        pub(crate) fn all_params(&self) -> Vec<ParamId> {
            self.ids().collect()
        }
    }

    impl DenseStore {
        /// Apply a plain SGD update (real training uses `zi-optim`).
        pub(crate) fn sgd_step(&mut self, lr: f32) {
            for (p, g) in self.params.iter_mut().zip(&self.grads) {
                if let Some(g) = g {
                    for (pv, gv) in p.data_mut().iter_mut().zip(g.data()) {
                        *pv -= lr * gv;
                    }
                }
            }
        }
    }

    #[test]
    fn registry_assigns_sequential_ids() {
        let mut reg = ParamRegistry::new();
        let a = reg.register("a", &[2, 3], 1, 0.1, 0.0);
        let b = reg.register("b", &[4], 2, 0.0, 1.0);
        assert_eq!(a, ParamId(0));
        assert_eq!(b, ParamId(1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.total_numel(), 10);
        assert_eq!(reg.find("b"), Some(b));
        assert_eq!(reg.find("zz"), None);
    }

    #[test]
    fn init_is_deterministic_and_respects_offset() {
        let mut reg = ParamRegistry::new();
        let w = reg.register("w", &[8], 42, 0.5, 0.0);
        let g = reg.register("gamma", &[4], 0, 0.0, 1.0);
        let t1 = reg.meta(w).init_tensor();
        let t2 = reg.meta(w).init_tensor();
        assert_eq!(t1.data(), t2.data());
        assert!(t1.max_abs() <= 0.5 + 1e-6);
        let gamma = reg.meta(g).init_tensor();
        assert!(gamma.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn dense_store_grad_accumulation() {
        let mut reg = ParamRegistry::new();
        let w = reg.register("w", &[3], 1, 0.1, 0.0);
        let mut store = DenseStore::new(&reg);
        let g = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        store.add_grad(w, &g).unwrap();
        store.add_grad(w, &g).unwrap();
        assert_eq!(store.grad(w).unwrap().data(), &[2.0, 4.0, 6.0]);
        store.zero_grads();
        assert!(store.grad(w).is_none());
    }

    #[test]
    fn dense_store_sgd_moves_params() {
        let mut reg = ParamRegistry::new();
        let w = reg.register("w", &[2], 1, 0.0, 1.0);
        let mut store = DenseStore::new(&reg);
        let g = Tensor::from_vec(&[2], vec![1.0, -1.0]).unwrap();
        store.add_grad(w, &g).unwrap();
        store.sgd_step(0.5);
        assert_eq!(store.param(w).data(), &[0.5, 1.5]);
    }

    #[test]
    fn module_plan_combines_params() {
        let plan = ModulePlan {
            name: "head".into(),
            own_params: vec![ParamId(3)],
            external_params: vec![ParamId(0)],
        };
        assert_eq!(plan.all_params(), vec![ParamId(3), ParamId(0)]);
    }
}
