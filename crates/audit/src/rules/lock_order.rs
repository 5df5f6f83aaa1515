//! Rule 2: static lock-order analysis.
//!
//! The static complement to `zi-check`'s dynamic wait-for-graph
//! deadlock detector: the dynamic detector only sees schedules it
//! happens to run, while this pass over-approximates every schedule the
//! source could exhibit. It extracts per-function acquisition sites on
//! *named* `zi_sync::Mutex`/`RwLock` fields, builds the
//! may-hold-while-acquiring graph across the whole workspace, and flags
//! cycles as potential ABBA deadlocks.
//!
//! ## The approximation, stated precisely
//!
//! * **Lock identity is `crate/Struct.field`** (or `crate/static.NAME`
//!   for statics). Two instances of one struct conflate — sound for
//!   ordering (an ABBA between instances is still an ABBA) but it means
//!   an intra-function self-edge (`a` acquired while `a` is held) is
//!   reported, since a non-reentrant `zi_sync::Mutex` self-deadlocks.
//! * **Guard lifetime**: a guard bound with `let` lives to the end of
//!   its enclosing block or an explicit `drop(binding)`; an unbound
//!   guard (statement temporary like `*self.x.lock() = v;`) dies at the
//!   statement's `;`. This over-approximates NLL drop points, never
//!   under-approximates them.
//! * **Interprocedural edges** come from one fixpoint over per-function
//!   may-acquire summaries with call resolution *by bare name* — a call
//!   made while holding `A` adds `A → L` for every `L` the callee (or
//!   anything it transitively calls) may acquire. Same-name functions
//!   merge conservatively. Interprocedural *self*-edges are dropped
//!   (name-merging makes them overwhelmingly false); intra-procedural
//!   self-edges are kept.
//! * **Ambiguous field names** (several structs declare a lock field
//!   with the same name and crate-local resolution fails) are *skipped,
//!   not guessed* — fabricating edges would manufacture cycles. The
//!   count of skipped sites is reported so the blind spot is visible.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use super::{is_punct, Finding, RuleId};
use crate::lexer::{SourceFile, Tok};

/// One edge in the may-hold-while-acquiring graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock held.
    pub from: String,
    /// Lock acquired while `from` is held.
    pub to: String,
    /// `file:line` of the acquiring site (or call site).
    pub site: String,
    /// Function the edge was observed in, `caller -> callee` for
    /// interprocedural edges.
    pub via: String,
}

/// The whole-workspace lock graph plus analysis metadata.
#[derive(Debug, Default, Clone)]
pub struct LockGraph {
    /// All named locks discovered (`crate/Struct.field`).
    pub nodes: BTreeSet<String>,
    /// Hold-while-acquiring edges (deduplicated by from/to/site).
    pub edges: Vec<LockEdge>,
    /// Acquisition sites dropped because the field name was ambiguous.
    pub ambiguous_sites: usize,
    /// Held-lock call sites dropped because the callee name is defined
    /// more than once in the workspace (name-merging would fabricate
    /// edges, so these are skipped and counted instead).
    pub ambiguous_calls: usize,
    /// Cycles found, each a closed walk of lock ids.
    pub cycles: Vec<Vec<String>>,
}

/// Run the pass over the whole source set (the rule is inherently
/// cross-file: declarations, acquisitions, and calls live in different
/// crates).
pub(crate) fn check(files: &[SourceFile], out: &mut Vec<Finding>) -> LockGraph {
    let decls = collect_lock_decls(files);
    let mut fns: Vec<FnSummary> = Vec::new();
    for file in files {
        collect_functions(file, &decls, &mut fns);
    }

    let mut graph = LockGraph {
        ambiguous_sites: fns.iter().map(|f| f.ambiguous).sum(),
        ..LockGraph::default()
    };
    for d in decls.all.values().flatten() {
        graph.nodes.insert(d.clone());
    }

    // Intra-procedural edges.
    let mut seen = HashSet::new();
    for f in &fns {
        for e in &f.edges {
            if seen.insert((e.from.clone(), e.to.clone(), e.site.clone())) {
                graph.edges.push(e.clone());
            }
        }
    }

    // Call resolution is by bare name; a name defined more than once
    // would merge unrelated functions and fabricate edges (e.g. every
    // `wait` in the workspace becoming one node). Only uniquely-defined
    // names participate; skipped call sites are counted.
    let mut def_count: HashMap<&str, usize> = HashMap::new();
    for f in &fns {
        *def_count.entry(f.name.as_str()).or_insert(0) += 1;
    }
    let unique = |name: &str| def_count.get(name) == Some(&1);

    // Fixpoint: what may each function (transitively) acquire?
    let mut may: HashMap<&str, BTreeSet<String>> = HashMap::new();
    for f in &fns {
        may.entry(f.name.as_str()).or_default().extend(f.acquires.iter().cloned());
    }
    loop {
        let mut changed = false;
        for f in &fns {
            let mut add = BTreeSet::new();
            for callee in &f.calls {
                if !unique(callee) {
                    continue;
                }
                if let Some(set) = may.get(callee.as_str()) {
                    add.extend(set.iter().cloned());
                }
            }
            let entry = may.entry(f.name.as_str()).or_default();
            for l in add {
                changed |= entry.insert(l);
            }
        }
        if !changed {
            break;
        }
    }

    // Interprocedural edges: held lock at a call site → everything the
    // callee may acquire (self-edges dropped, see module docs).
    for f in &fns {
        for (held, callee, site) in &f.calls_while_held {
            if !unique(callee) {
                graph.ambiguous_calls += 1;
                continue;
            }
            if let Some(acquired) = may.get(callee.as_str()) {
                for to in acquired {
                    if to == held {
                        continue;
                    }
                    let key = (held.clone(), to.clone(), site.clone());
                    if seen.insert(key) {
                        graph.edges.push(LockEdge {
                            from: held.clone(),
                            to: to.clone(),
                            site: site.clone(),
                            via: format!("{} -> {}", f.name, callee),
                        });
                    }
                }
            }
        }
    }

    graph.cycles = find_cycles(&graph);
    for cycle in &graph.cycles {
        let path = cycle.join(" -> ");
        let sites: Vec<&str> = graph
            .edges
            .iter()
            .filter(|e| on_cycle(cycle, e))
            .map(|e| e.site.as_str())
            .collect();
        let first_site = sites.first().copied().unwrap_or("");
        let (file_part, line_part) = split_site(first_site);
        out.push(Finding {
            rule: RuleId::LockOrder,
            path: file_part,
            line: line_part,
            symbol: format!("cycle: {path}"),
            message: format!(
                "potential ABBA deadlock — lock-order cycle {path}; acquisition sites: {}",
                sites.join(", ")
            ),
        });
    }
    graph
}

fn on_cycle(cycle: &[String], e: &LockEdge) -> bool {
    let n = cycle.len();
    if n < 2 {
        return false;
    }
    // `cycle` is a closed walk: last element repeats the first.
    (0..n - 1).any(|i| cycle[i] == e.from && cycle[i + 1] == e.to)
}

fn split_site(site: &str) -> (String, u32) {
    match site.rsplit_once(':') {
        Some((f, l)) => (f.to_string(), l.parse().unwrap_or(0)),
        None => (site.to_string(), 0),
    }
}

// ---------------------------------------------------------------------------
// Declarations

struct Decls {
    /// field name → fully-qualified lock ids declaring it.
    all: HashMap<String, Vec<String>>,
    /// lock id → crate, for same-crate preference at resolution.
    crate_of: HashMap<String, String>,
}

fn crate_key(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("(root)")
        .to_string()
}

/// Does this file bring `zi_sync`'s `Mutex`/`RwLock` into scope by the
/// bare name (via any `use` statement mentioning both)?
fn imports_zi_sync_lock(file: &SourceFile) -> bool {
    let mut i = 0;
    while i < file.tokens.len() {
        if super::is_ident(file, i, "use") {
            let mut j = i + 1;
            let mut saw_zi_sync = false;
            let mut saw_lock = false;
            while j < file.tokens.len() && !is_punct(file, j, ';') {
                match file.ident(j) {
                    Some("zi_sync") => saw_zi_sync = true,
                    Some("Mutex") | Some("RwLock") => saw_lock = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_zi_sync && saw_lock {
                return true;
            }
            i = j;
        }
        i += 1;
    }
    false
}

/// Find `name: Mutex<...>` / `name: RwLock<...>` struct fields and
/// `static NAME: Mutex<...>` statics whose lock type comes from
/// `zi_sync` (explicit `zi_sync::Mutex` path, or bare name with a
/// `use zi_sync::...Mutex...` import in the file).
fn collect_lock_decls(files: &[SourceFile]) -> Decls {
    let mut decls = Decls { all: HashMap::new(), crate_of: HashMap::new() };
    for file in files {
        let bare_ok = imports_zi_sync_lock(file);
        let krate = crate_key(&file.path);
        let mut i = 0;
        while i < file.tokens.len() {
            // Track the enclosing struct for field qualification.
            if super::is_ident(file, i, "struct") {
                if let Some(name) = file.ident(i + 1) {
                    let struct_name = name.to_string();
                    // Find the `{` opening the field block (skip
                    // generics); tuple structs / unit structs have no
                    // named fields to consider.
                    let mut j = i + 2;
                    let mut angle = 0i32;
                    while j < file.tokens.len() {
                        match file.tokens[j].tok {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') => angle -= 1,
                            Tok::Punct(';') | Tok::Punct('(') if angle <= 0 => break,
                            Tok::Punct('{') if angle <= 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if is_punct(file, j, '{') {
                        let end = super::matching_brace(file, j);
                        scan_fields(file, j + 1, end, bare_ok, &krate, &struct_name, &mut decls);
                        i = end;
                        continue;
                    }
                }
            }
            // `static NAME: Mutex<...>` (also `pub static`).
            if super::is_ident(file, i, "static") {
                let at = if super::is_ident(file, i + 1, "mut") { i + 2 } else { i + 1 };
                if let Some(name) = file.ident(at) {
                    if is_punct(file, at + 1, ':') && !file.is_path_sep(at + 1) {
                        if let Some(()) = lock_type_at(file, at + 2, bare_ok) {
                            register(&mut decls, &krate, "static", name, file.tokens[i].line);
                        }
                    }
                }
            }
            i += 1;
        }
    }
    decls
}

/// Scan a struct body's top-level fields for lock-typed ones.
fn scan_fields(
    file: &SourceFile,
    start: usize,
    end: usize,
    bare_ok: bool,
    krate: &str,
    struct_name: &str,
    decls: &mut Decls,
) {
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        match file.tokens[i].tok {
            Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            // field `:` type — require a single `:` (not `::`).
            Tok::Ident(_)
                if depth == 0
                    && is_punct(file, i + 1, ':')
                    && !file.is_path_sep(i + 1)
                    && !file.is_path_sep(i.wrapping_sub(1))
                    && lock_type_at(file, i + 2, bare_ok).is_some() =>
            {
                if let Some(field) = file.ident(i) {
                    register(decls, krate, struct_name, field, file.tokens[i].line);
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Is the type starting at token `i` a zi-sync lock (`Mutex<`,
/// `RwLock<`, `zi_sync::Mutex<`, possibly wrapped in `Arc<...>`)?
fn lock_type_at(file: &SourceFile, i: usize, bare_ok: bool) -> Option<()> {
    // Unwrap one `Arc<` layer: `Arc<Mutex<...>>` is a named lock too.
    if file.ident(i) == Some("Arc") && is_punct(file, i + 1, '<') {
        return lock_type_at(file, i + 2, bare_ok);
    }
    if file.ident(i) == Some("zi_sync") && file.is_path_sep(i + 1) {
        let name = file.ident(i + 3)?;
        return (matches!(name, "Mutex" | "RwLock") && is_punct(file, i + 4, '<')).then_some(());
    }
    let name = file.ident(i)?;
    (bare_ok && matches!(name, "Mutex" | "RwLock") && is_punct(file, i + 1, '<')).then_some(())
}

fn register(decls: &mut Decls, krate: &str, owner: &str, field: &str, _line: u32) {
    let id = format!("{krate}/{owner}.{field}");
    let slot = decls.all.entry(field.to_string()).or_default();
    if !slot.contains(&id) {
        decls.crate_of.insert(id.clone(), krate.to_string());
        slot.push(id);
    }
}

// ---------------------------------------------------------------------------
// Function bodies

struct FnSummary {
    name: String,
    /// Locks directly acquired anywhere in the body.
    acquires: BTreeSet<String>,
    /// All callees (for the may-acquire fixpoint).
    calls: BTreeSet<String>,
    /// (held lock, callee, site) at call sites under a live guard.
    calls_while_held: Vec<(String, String, String)>,
    /// Intra-procedural hold-while-acquiring edges.
    edges: Vec<LockEdge>,
    /// Acquisition-shaped sites whose field resolution was ambiguous.
    ambiguous: usize,
}

/// Keywords that look like calls (`if (...)`) or otherwise must not be
/// treated as callee names.
const NON_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "loop", "unsafe", "move", "in", "as", "let",
    "else", "break", "continue", "where", "impl", "dyn", "box", "await", "Some", "Ok", "Err",
    "None", "drop", "Self", "self",
];

fn collect_functions(file: &SourceFile, decls: &Decls, out: &mut Vec<FnSummary>) {
    let krate = crate_key(&file.path);
    let mut i = 0;
    while i < file.tokens.len() {
        if !super::is_ident(file, i, "fn") {
            i += 1;
            continue;
        }
        let Some(name) = file.ident(i + 1) else {
            i += 1;
            continue;
        };
        // Find the body `{` (skip signature: parens, generics, where).
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut body_open = None;
        while j < file.tokens.len() {
            match file.tokens[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => paren += 1,
                Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
                Tok::Punct(';') if paren == 0 => break, // trait fn, no body
                Tok::Punct('{') if paren == 0 => {
                    body_open = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        let end = super::matching_brace(file, open);
        let summary = walk_body(file, decls, &krate, name, open, end);
        out.push(summary);
        i = end;
    }
}

/// A guard live inside a function body.
struct Guard {
    lock: String,
    /// Brace depth at acquisition (guard dies when depth drops below).
    depth: i32,
    /// `let` binding name, if any (for `drop(binding)`).
    binding: Option<String>,
    /// Statement temporaries die at the next `;` at their depth.
    temp: bool,
}

fn walk_body(
    file: &SourceFile,
    decls: &Decls,
    krate: &str,
    fn_name: &str,
    open: usize,
    end: usize,
) -> FnSummary {
    let mut s = FnSummary {
        name: fn_name.to_string(),
        acquires: BTreeSet::new(),
        calls: BTreeSet::new(),
        calls_while_held: Vec::new(),
        edges: Vec::new(),
        ambiguous: 0,
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // The binding of the statement currently being parsed (`let g = ..`).
    let mut stmt_binding: Option<String> = None;
    let mut i = open;
    while i < end {
        match &file.tokens[i].tok {
            Tok::Punct('{') => {
                depth += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                stmt_binding = None;
            }
            Tok::Punct(';') => {
                guards.retain(|g| !(g.temp && g.depth == depth));
                stmt_binding = None;
            }
            Tok::Ident(id) => {
                match id.as_str() {
                    "let" => {
                        let at = if super::is_ident(file, i + 1, "mut") { i + 2 } else { i + 1 };
                        stmt_binding = file.ident(at).map(str::to_string);
                    }
                    "drop" if is_punct(file, i + 1, '(') => {
                        if let Some(arg) = file.ident(i + 2) {
                            if is_punct(file, i + 3, ')') {
                                guards.retain(|g| g.binding.as_deref() != Some(arg));
                            }
                        }
                    }
                    "lock" | "read" | "write"
                        if is_punct(file, i.wrapping_sub(1), '.')
                            && is_punct(file, i + 1, '(')
                            && is_punct(file, i + 2, ')') =>
                    {
                        if let Some(field) = file.ident(i.wrapping_sub(2)) {
                            match resolve(decls, krate, field) {
                                Resolution::Lock(lock) => {
                                    let site = format!("{}:{}", file.path, file.tokens[i].line);
                                    for g in &guards {
                                        s.edges.push(LockEdge {
                                            from: g.lock.clone(),
                                            to: lock.clone(),
                                            site: site.clone(),
                                            via: fn_name.to_string(),
                                        });
                                    }
                                    s.acquires.insert(lock.clone());
                                    // The guard outlives the statement
                                    // only when the acquisition IS the
                                    // whole `let` initializer — in
                                    // `let x = a.lock().f.is_some();`
                                    // the binding holds the *result*
                                    // and the guard dies at the `;`.
                                    let bound = stmt_binding.is_some()
                                        && is_punct(file, i + 3, ';');
                                    guards.push(Guard {
                                        lock,
                                        depth,
                                        binding: if bound { stmt_binding.clone() } else { None },
                                        temp: !bound,
                                    });
                                }
                                Resolution::Ambiguous => s.ambiguous += 1,
                                Resolution::NotALock => {}
                            }
                        }
                    }
                    name if is_punct(file, i + 1, '(') && !NON_CALLEES.contains(&name) => {
                        // A call (free or method). Record for the
                        // fixpoint, and against held guards.
                        s.calls.insert(name.to_string());
                        if !guards.is_empty() {
                            let site = format!("{}:{}", file.path, file.tokens[i].line);
                            for g in &guards {
                                s.calls_while_held.push((
                                    g.lock.clone(),
                                    name.to_string(),
                                    site.clone(),
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        i += 1;
    }
    s
}

enum Resolution {
    Lock(String),
    Ambiguous,
    NotALock,
}

/// Resolve a field name at an acquisition site to a declared lock:
/// unique in the same crate wins, else unique across the workspace,
/// else the site is ambiguous and dropped (counted, never guessed).
fn resolve(decls: &Decls, krate: &str, field: &str) -> Resolution {
    let Some(candidates) = decls.all.get(field) else {
        return Resolution::NotALock;
    };
    let same_crate: Vec<&String> = candidates
        .iter()
        .filter(|id| decls.crate_of.get(*id).is_some_and(|c| c == krate))
        .collect();
    match (same_crate.len(), candidates.len()) {
        (1, _) => Resolution::Lock(same_crate[0].clone()),
        (0, 1) => Resolution::Lock(candidates[0].clone()),
        _ => Resolution::Ambiguous,
    }
}

// ---------------------------------------------------------------------------
// Cycle detection

/// Find elementary cycles: one representative closed walk per strongly
/// connected component with ≥ 2 nodes, plus direct self-edges. (One
/// walk per SCC keeps reports readable; fixing the cycle re-runs the
/// audit and surfaces whatever remains.)
fn find_cycles(graph: &LockGraph) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &graph.edges {
        adj.entry(e.from.as_str()).or_default().insert(e.to.as_str());
    }
    let mut cycles = Vec::new();
    // Self-edges first.
    for e in &graph.edges {
        if e.from == e.to && !cycles.iter().any(|c: &Vec<String>| c.first() == Some(&e.from)) {
            cycles.push(vec![e.from.clone(), e.to.clone()]);
        }
    }
    // Tarjan SCC, iteratively (small graphs; recursion depth is fine,
    // but iterative avoids any pathological-input stack concern).
    let nodes: Vec<&str> = adj
        .keys()
        .copied()
        .chain(adj.values().flatten().copied())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let index_of: HashMap<&str, usize> =
        nodes.iter().enumerate().map(|(k, &n)| (n, k)).collect();
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Iterative Tarjan with an explicit work stack of (node, neighbor
    // iterator position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, pi)) = work.last() {
            if pi == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let neighbors: Vec<usize> = adj
                .get(nodes[v])
                .map(|set| set.iter().filter_map(|t| index_of.get(t).copied()).collect())
                .unwrap_or_default();
            if pi < neighbors.len() {
                let w = neighbors[pi];
                if let Some(top) = work.last_mut() {
                    top.1 += 1;
                }
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() >= 2 {
                        sccs.push(comp);
                    }
                }
                let done_low = low[v];
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(done_low);
                }
            }
        }
    }

    // One representative closed walk per SCC: walk successors inside
    // the component until a node repeats.
    for comp in sccs {
        let members: BTreeSet<&str> = comp.iter().map(|&k| nodes[k]).collect();
        let Some(&first) = members.iter().next() else { continue };
        let mut walk = vec![first.to_string()];
        let mut cur = first;
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        visited.insert(first);
        loop {
            let next = adj
                .get(cur)
                .and_then(|set| set.iter().find(|t| members.contains(**t)).copied());
            let Some(nx) = next else { break };
            walk.push(nx.to_string());
            if nx == first || !visited.insert(nx) {
                break;
            }
            cur = nx;
        }
        // Trim any acyclic prefix: the walk closes on its last node's
        // first occurrence, not necessarily on `first`.
        if let Some(last) = walk.last().cloned() {
            if let Some(pos) = walk.iter().position(|n| *n == last) {
                if pos + 1 < walk.len() {
                    walk.drain(..pos);
                }
            }
        }
        if walk.len() >= 3 {
            cycles.push(walk);
        }
    }
    cycles
}
