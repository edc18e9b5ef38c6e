//! The benchmark's own model of the data: generated programs and facts,
//! the query and mutation streams, and the reference answers.
//!
//! Reference answers are computed here, without calling into sepra: BFS
//! for closures and for Example 1.2's `buys`, Dijkstra for the recursive
//! `min` paths, a nested-loop fixpoint for same-generation and a direct
//! join for the bounded recursion.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::rng::Rng;

/// A ground fact: predicate and argument texts.
pub type Fact = (&'static str, Vec<String>);

pub fn fact_text((pred, args): &Fact) -> String {
    format!("{pred}({}).", args.join(", "))
}

/// An answer relation as the benchmark compares it: sorted tuples.
pub type Tuples = Vec<Vec<String>>;

/// The EDB as plain sets, with per-relation adjacency caches that are
/// dropped whenever the relation changes.
#[derive(Debug, Clone, Default)]
pub struct Edb {
    rels: HashMap<&'static str, HashSet<Vec<String>>>,
    adj: HashMap<(&'static str, usize, usize), HashMap<String, Vec<String>>>,
}

impl Edb {
    pub fn insert(&mut self, (pred, args): Fact) -> bool {
        self.adj.retain(|k, _| k.0 != pred);
        self.rels.entry(pred).or_default().insert(args)
    }

    pub fn remove(&mut self, (pred, args): &Fact) -> bool {
        self.adj.retain(|k, _| k.0 != *pred);
        self.rels.get_mut(pred).is_some_and(|r| r.remove(args))
    }

    /// Applies a mutation the way `apply_mutation` does (retractions first)
    /// and returns the effective `(inserted, retracted)` counts.
    pub fn apply(&mut self, m: &Mutation) -> (usize, usize) {
        let retracted = m.retract.iter().filter(|f| self.remove(f)).count();
        let inserted = m.insert.iter().filter(|f| self.insert((*f).clone())).count();
        (inserted, retracted)
    }

    pub fn rel(&self, pred: &str) -> impl Iterator<Item = &Vec<String>> {
        self.rels.get(pred).into_iter().flatten()
    }

    pub fn contains(&self, pred: &str, args: &[String]) -> bool {
        self.rels.get(pred).is_some_and(|r| r.contains(args))
    }

    /// `pred`'s column `from` → column `to` adjacency, built on demand.
    pub fn adj(
        &mut self,
        pred: &'static str,
        from: usize,
        to: usize,
    ) -> &HashMap<String, Vec<String>> {
        if !self.adj.contains_key(&(pred, from, to)) {
            let mut map: HashMap<String, Vec<String>> = HashMap::new();
            for t in self.rel(pred) {
                map.entry(t[from].clone()).or_default().push(t[to].clone());
            }
            self.adj.insert((pred, from, to), map);
        }
        &self.adj[&(pred, from, to)]
    }

    /// Nodes reachable from `starts` over one or more `steps`, each a
    /// `(pred, from, to)` edge relation; `include_starts` adds the starts.
    pub fn closure(
        &mut self,
        steps: &[(&'static str, usize, usize)],
        starts: impl IntoIterator<Item = String>,
        include_starts: bool,
    ) -> HashSet<String> {
        for &(p, f, t) in steps {
            self.adj(p, f, t);
        }
        let adjs: Vec<&HashMap<String, Vec<String>>> = steps.iter().map(|k| &self.adj[k]).collect();
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        for s in starts {
            if include_starts {
                seen.insert(s.clone());
            }
            queue.push_back(s);
        }
        while let Some(x) = queue.pop_front() {
            for adj in &adjs {
                for y in adj.get(&x).into_iter().flatten() {
                    if seen.insert(y.clone()) {
                        queue.push_back(y.clone());
                    }
                }
            }
        }
        seen
    }

    pub fn text(&self) -> String {
        let mut facts: Vec<String> = self
            .rels
            .iter()
            .flat_map(|(p, r)| r.iter().map(move |a| fact_text(&(*p, a.clone()))))
            .collect();
        facts.sort();
        facts.join("\n") + "\n"
    }
}

/// One insert/retract request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mutation {
    pub insert: Vec<Fact>,
    pub retract: Vec<Fact>,
}

/// The queries the workloads issue. Each knows its text and its reference
/// answer over an [`Edb`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// `buys(p, Y)?` — Example 1.2, selection on the person class.
    BuysPerson(String),
    /// `buys(X, i)?` — Example 1.2, selection on the item class.
    BuysItem(String),
    /// `t(c, Y)?` — the `S_2^2` witness.
    Spk(String),
    /// `sw(v, Y)?` — the bounded recursion.
    Swap(String),
    /// `reach(n, Y)?` — closure over the weighted edges.
    Reach(String),
    /// `short(Y, C)?` — recursive `min` shortest paths from `src`.
    Short,
    /// `unreach(X, Y)?` — stratified negation over `reach`.
    Unreach,
    /// `anc(X, Y)?` — unselective closure.
    Anc,
    /// `tc(X, Y)?` — unselective closure over the session digraph.
    Tc,
    /// `sg(a, Y)?` — same generation, selective.
    Sg(String),
    /// `sp(Y, C)?` — recursive `min` shortest paths from `start`.
    Sp,
}

impl Query {
    pub fn text(&self) -> String {
        match self {
            Query::BuysPerson(p) => format!("buys({p}, Y)?"),
            Query::BuysItem(i) => format!("buys(X, {i})?"),
            Query::Spk(c) => format!("t({c}, Y)?"),
            Query::Swap(v) => format!("sw({v}, Y)?"),
            Query::Reach(n) => format!("reach({n}, Y)?"),
            Query::Short => "short(Y, C)?".into(),
            Query::Unreach => "unreach(X, Y)?".into(),
            Query::Anc => "anc(X, Y)?".into(),
            Query::Tc => "tc(X, Y)?".into(),
            Query::Sg(a) => format!("sg({a}, Y)?"),
            Query::Sp => "sp(Y, C)?".into(),
        }
    }

    /// The reference answer, sorted.
    pub fn reference(&self, edb: &mut Edb) -> Tuples {
        let pair = |a: &str, b: &str| vec![a.to_string(), b.to_string()];
        let mut out: Tuples = match self {
            Query::BuysPerson(p) => {
                let people = edb.closure(&[("friend", 0, 1)], [p.clone()], true);
                let liked: Vec<String> = {
                    let perfect = edb.adj("perfectFor", 0, 1);
                    people
                        .iter()
                        .flat_map(|q| perfect.get(q).into_iter().flatten())
                        .cloned()
                        .collect()
                };
                let items = edb.closure(&[("cheaper", 1, 0)], liked, true);
                items.iter().map(|y| pair(p, y)).collect()
            }
            Query::BuysItem(i) => {
                let items = edb.closure(&[("cheaper", 0, 1)], [i.clone()], true);
                let fans: Vec<String> = {
                    let perfect = edb.adj("perfectFor", 1, 0);
                    items
                        .iter()
                        .flat_map(|w| perfect.get(w).into_iter().flatten())
                        .cloned()
                        .collect()
                };
                let people = edb.closure(&[("friend", 1, 0)], fans, true);
                people.iter().map(|x| pair(x, i)).collect()
            }
            Query::Spk(c) => {
                let nodes = edb.closure(&[("a1", 0, 1), ("a2", 0, 1)], [c.clone()], true);
                let t0 = edb.adj("t0", 0, 1);
                let ys: HashSet<&String> =
                    nodes.iter().flat_map(|z| t0.get(z).into_iter().flatten()).collect();
                ys.into_iter().map(|y| pair(c, y)).collect()
            }
            Query::Swap(v) => {
                // sw = base ∪ {(x, y) | sym(x, y), base(y, x)}: the one-step
                // unfolding, as a direct join.
                let mut ys: HashSet<String> =
                    edb.adj("base", 0, 1).get(v).cloned().unwrap_or_default().into_iter().collect();
                let syms = edb.adj("sym", 0, 1).get(v).cloned().unwrap_or_default();
                for y in syms {
                    if edb.contains("base", &[y.clone(), v.clone()]) {
                        ys.insert(y);
                    }
                }
                ys.iter().map(|y| pair(v, y)).collect()
            }
            Query::Reach(n) => {
                let ys = edb.closure(&[("w", 0, 1)], [n.clone()], false);
                ys.iter().map(|y| pair(n, y)).collect()
            }
            Query::Short => {
                let starts: Vec<String> = edb.rel("src").map(|t| t[0].clone()).collect();
                dijkstra(edb.rel("w"), &starts)
            }
            Query::Sp => {
                let starts: Vec<String> = edb.rel("start").map(|t| t[0].clone()).collect();
                dijkstra(edb.rel("road"), &starts)
            }
            Query::Unreach => {
                let nodes: Vec<String> = edb.rel("node").map(|t| t[0].clone()).collect();
                let mut out = Vec::new();
                for x in &nodes {
                    let reach = edb.closure(&[("w", 0, 1)], [x.clone()], false);
                    out.extend(nodes.iter().filter(|y| !reach.contains(*y)).map(|y| pair(x, y)));
                }
                out
            }
            Query::Anc | Query::Tc => {
                let edge = if *self == Query::Anc { "par" } else { "edge" };
                let sources: BTreeSet<String> = edb.rel(edge).map(|t| t[0].clone()).collect();
                let mut out = Vec::new();
                for x in sources {
                    let ys = edb.closure(&[(edge, 0, 1)], [x.clone()], false);
                    out.extend(ys.iter().map(|y| pair(&x, y)));
                }
                out
            }
            Query::Sg(a) => same_generation(edb, a).into_iter().map(|y| pair(a, &y)).collect(),
        };
        out.sort();
        out
    }
}

/// `min` over all paths of one or more edges from any start, as the
/// recursive-`min` rules define it (a start only gets a distance through a
/// cycle back to it). Weights are positive, so Dijkstra settles each node
/// once.
fn dijkstra<'a>(edges: impl Iterator<Item = &'a Vec<String>>, starts: &[String]) -> Tuples {
    let mut adj: HashMap<&str, Vec<(&str, i64)>> = HashMap::new();
    for t in edges {
        adj.entry(&t[0]).or_default().push((&t[1], t[2].parse().expect("integer weight")));
    }
    let mut dist: HashMap<&str, i64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    for s in starts {
        for &(y, c) in adj.get(s.as_str()).into_iter().flatten() {
            heap.push(Reverse((c, y)));
        }
    }
    while let Some(Reverse((d, x))) = heap.pop() {
        if dist.contains_key(x) {
            continue;
        }
        dist.insert(x, d);
        for &(y, c) in adj.get(x).into_iter().flatten() {
            if !dist.contains_key(y) {
                heap.push(Reverse((d + c, y)));
            }
        }
    }
    dist.into_iter().map(|(y, d)| vec![y.to_string(), d.to_string()]).collect()
}

/// `sg(a, Y)` by a direct nested-loop fixpoint over the pairs whose first
/// column is `a` or an `up`-ancestor of it:
/// `S = flat ∪ {(x, y) | up(x, u), (u, v) ∈ S, down(v, y)}`.
fn same_generation(edb: &mut Edb, a: &str) -> Vec<String> {
    let ancestors = edb.closure(&[("up", 0, 1)], [a.to_string()], true);
    let up: Vec<(String, String)> = edb
        .rel("up")
        .filter(|t| ancestors.contains(&t[0]))
        .map(|t| (t[0].clone(), t[1].clone()))
        .collect();
    let mut s: HashSet<(String, String)> = edb
        .rel("flat")
        .filter(|t| ancestors.contains(&t[0]))
        .map(|t| (t[0].clone(), t[1].clone()))
        .collect();
    let down = edb.adj("down", 0, 1).clone();
    loop {
        let mut added = Vec::new();
        for (x, u) in &up {
            for (u2, v) in &s {
                if u2 != u {
                    continue;
                }
                for y in down.get(v).into_iter().flatten() {
                    let p = (x.clone(), y.clone());
                    if !s.contains(&p) {
                        added.push(p);
                    }
                }
            }
        }
        if added.is_empty() {
            break;
        }
        s.extend(added);
    }
    s.into_iter().filter(|(x, _)| x == a).map(|(_, y)| y).collect()
}

/// People, items, `S_2^2` nodes and bounded-recursion nodes in
/// serve_selective.
fn selective_n(tiny: bool) -> usize {
    if tiny {
        48
    } else {
        300
    }
}

/// People, items and `par` nodes in serve_write_heavy.
fn write_heavy_n(tiny: bool) -> usize {
    if tiny {
        24
    } else {
        96
    }
}

/// `sg` trees in session_fixpoint.
fn session_trees(tiny: bool) -> usize {
    if tiny {
        4
    } else {
        16
    }
}

/// Input sizes. `Tiny` keeps the self-test fast; `Full` is what a run
/// measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Full,
}

/// Nodes `prefix0..prefix{n-1}` in clusters of `size`; `pick` draws a
/// member of `x`'s cluster other than `x` itself.
#[derive(Debug, Clone, Copy)]
struct Clusters {
    prefix: &'static str,
    n: usize,
    size: usize,
}

impl Clusters {
    fn name(&self, i: usize) -> String {
        format!("{}{i}", self.prefix)
    }
    /// The next member of `x`'s cluster, round the ring.
    fn next(&self, x: usize) -> usize {
        let base = x / self.size * self.size;
        base + (x - base + 1) % self.size.min(self.n - base)
    }
    fn any(&self, rng: &mut Rng) -> usize {
        rng.below(self.n)
    }
    fn pick(&self, rng: &mut Rng, x: usize) -> usize {
        let base = x / self.size * self.size;
        let width = self.size.min(self.n - base);
        (base + (x - base + 1 + rng.below(width - 1)) % width).min(self.n - 1)
    }
    fn edge(&self, rng: &mut Rng, pred: &'static str, x: usize) -> Fact {
        (pred, vec![self.name(x), self.name(self.pick(rng, x))])
    }
}

/// The three workloads, generated from one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeSelective,
    ServeWriteHeavy,
    SessionFixpoint,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "serve_selective" => Some(Kind::ServeSelective),
            "serve_write_heavy" => Some(Kind::ServeWriteHeavy),
            "session_fixpoint" => Some(Kind::SessionFixpoint),
            _ => None,
        }
    }
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeSelective => "serve_selective",
            Kind::ServeWriteHeavy => "serve_write_heavy",
            Kind::SessionFixpoint => "session_fixpoint",
        }
    }
}

pub const BUYS_RULES: &str = "\
buys(X, Y) :- friend(X, W), buys(W, Y).
buys(X, Y) :- buys(X, W), cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
";

pub const SPK_RULES: &str = "\
t(X1, X2) :- a1(X1, W), t(W, X2).
t(X1, X2) :- a2(X1, W), t(W, X2).
t(X1, X2) :- t0(X1, X2).
";

pub const SWAP_RULES: &str = "\
sw(X, Y) :- sym(X, Y), sw(Y, X).
sw(X, Y) :- base(X, Y).
";

pub const ANC_RULES: &str = "\
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, W), anc(W, Y).
";

/// `examples/serve/shortest.dl`'s rules.
pub const SHORTEST_RULES: &str = "\
short(Y, min<C>) :- src(X), w(X, Y, C).
short(Y, min<C>) :- short(X, D), w(X, Y, W), C = D + W.
reach(X, Y) :- w(X, Y, C).
reach(X, Y) :- reach(X, Z), w(Z, Y, C).
unreach(X, Y) :- node(X), node(Y), !reach(X, Y).
";

pub const TC_SG_RULES: &str = "\
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, W), tc(W, Y).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
";

pub const SP_RULES: &str = "\
sp(Y, min<C>) :- start(X), road(X, Y, C).
sp(Y, min<C>) :- sp(X, D), road(X, Y, W), C = D + W.
";

/// One program a workload loads: rules and the base facts.
#[derive(Debug, Clone)]
pub struct ProgramInput {
    pub rules: String,
    pub edb: Edb,
}

impl ProgramInput {
    /// The source text handed to the program: rules, then facts.
    pub fn text(&self) -> String {
        format!("{}\n{}", self.rules, self.edb.text())
    }
}

/// Everything generated from the seed for one workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub kind: Kind,
    pub scale: Scale,
    pub seed: u64,
    pub programs: Vec<ProgramInput>,
}

/// One operation a client issues: a query or a mutation, against
/// program `program` (the session workload has two).
#[derive(Debug, Clone)]
pub enum Op {
    Query { program: usize, query: Query },
    Mutate { program: usize, mutation: Mutation },
}

impl Inputs {
    pub fn generate(kind: Kind, scale: Scale, seed: u64) -> Inputs {
        let mut rng = Rng::stream(seed, 0);
        let tiny = scale == Scale::Tiny;
        let programs = match kind {
            Kind::ServeSelective => {
                let n = selective_n(tiny);
                let mut edb = Edb::default();
                gen_buys(&mut rng, &mut edb, n);
                let c = spk_nodes(n);
                for x in 0..c.n {
                    edb.insert(("a1", vec![c.name(x), c.name(c.next(x))]));
                    if rng.percent(50) {
                        edb.insert(c.edge(&mut rng, "a2", x));
                    }
                    for _ in 0..2 {
                        edb.insert(("t0", vec![c.name(x), c.name(c.any(&mut rng))]));
                    }
                }
                let v = swap_nodes(n);
                for x in 0..v.n {
                    edb.insert(v.edge(&mut rng, "sym", x));
                    edb.insert(v.edge(&mut rng, "base", x));
                }
                vec![ProgramInput { rules: [BUYS_RULES, SPK_RULES, SWAP_RULES].concat(), edb }]
            }
            Kind::ServeWriteHeavy => {
                let n = write_heavy_n(tiny);
                let mut edb = Edb::default();
                gen_buys(&mut rng, &mut edb, n);
                let par = par_nodes(n);
                for x in 1..par.n {
                    // One chain per cluster, so `anc` is acyclic and of a
                    // fixed size.
                    if x % par.size != 0 {
                        edb.insert(("par", vec![par.name(x - 1), par.name(x)]));
                    }
                }
                // A chain of clusters: each a weighted ring plus chords,
                // linked to the next one, so `reach` and `unreach` have a
                // fixed size and `short` has many competing routes.
                let g = shortest_nodes(tiny);
                edb.insert(("src", vec![g.name(0)]));
                let weight = |rng: &mut Rng| (1 + rng.below(9)).to_string();
                for x in 0..g.n {
                    edb.insert(("node", vec![g.name(x)]));
                    edb.insert(("w", vec![g.name(x), g.name(g.next(x)), weight(&mut rng)]));
                    edb.insert((
                        "w",
                        vec![g.name(x), g.name(g.pick(&mut rng, x)), weight(&mut rng)],
                    ));
                    if x % g.size == g.size - 1 && x + 1 < g.n {
                        edb.insert(("w", vec![g.name(x), g.name(x + 1), weight(&mut rng)]));
                    }
                }
                vec![ProgramInput { rules: [BUYS_RULES, ANC_RULES, SHORTEST_RULES].concat(), edb }]
            }
            Kind::SessionFixpoint => {
                // A layered DAG where node i of each layer points to nodes i
                // and i + 1 of the next: every closure has a fixed size.
                let mut pos = Edb::default();
                let (layers, width) = session_layers(tiny);
                for l in 0..layers - 1 {
                    for i in 0..width {
                        for j in [i, (i + 1) % width] {
                            pos.insert((
                                "edge",
                                vec![format!("l{l}_{i}"), format!("l{}_{j}", l + 1)],
                            ));
                        }
                    }
                }
                let (trees, depth) = (session_trees(tiny), if tiny { 2 } else { 3 });
                for r in 0..trees {
                    let mut level = vec![format!("r{r}")];
                    for _ in 0..depth {
                        let mut next = Vec::new();
                        for parent in &level {
                            for k in 0..3 {
                                let child = format!("{parent}_{k}");
                                pos.insert(("up", vec![child.clone(), parent.clone()]));
                                pos.insert(("down", vec![parent.clone(), child.clone()]));
                                next.push(child);
                            }
                        }
                        level = next;
                    }
                    // The roots' `flat` pairs form a ring: each distinct
                    // pair adds the same number of `sg` tuples, so the full
                    // `sg` relation (which every `tc` query also derives)
                    // has a fixed size.
                    pos.insert(("flat", vec![format!("r{r}"), format!("r{}", (r + 1) % trees)]));
                }
                // Roads: a ring through every node plus two roads from each
                // to random nodes, with random weights. The random roads
                // keep the diameter (and so the fixpoint's iteration count)
                // small. They are drawn from a fixed stream, so the shape is
                // the same for every seed and only the weights vary.
                let g = road_nodes(tiny);
                let mut shape = Rng::stream(ROAD_SHAPE_SEED, 0);
                let mut roads = Edb::default();
                roads.insert(("start", vec![g.name(0)]));
                for x in 0..g.n {
                    roads.insert(road(&mut rng, g, x, (x + 1) % g.n));
                    for _ in 0..2 {
                        let y = g.any(&mut shape);
                        roads.insert(road(&mut rng, g, x, y));
                    }
                }
                vec![
                    ProgramInput { rules: TC_SG_RULES.into(), edb: pos },
                    ProgramInput { rules: SP_RULES.into(), edb: roads },
                ]
            }
        };
        Inputs { kind, scale, seed, programs }
    }

    /// Client `client`'s operation stream, one round at a time. Every
    /// round has the same shape, so a run always attempts whole rounds.
    pub fn client(&self, client: u64) -> ClientStream {
        let mut sg_nodes: Vec<String> =
            self.programs[0].edb.rel("up").map(|t| t[0].clone()).collect();
        // Set iteration order is not the seed's: sort before drawing.
        sg_nodes.sort();
        ClientStream {
            kind: self.kind,
            tiny: self.scale == Scale::Tiny,
            rng: Rng::stream(self.seed, 100 + client),
            owned: HashMap::new(),
            mutations: 0,
            base: Arc::new(self.programs.iter().map(|p| p.edb.clone()).collect()),
            sg_nodes,
        }
    }

    /// The mutations applied before the timed window to build a data dir
    /// with a WAL tail (serve_write_heavy only).
    pub fn prebuild_mutations(&self, count: usize) -> Vec<Mutation> {
        let mut stream = self.client(99);
        (0..count).map(|_| stream.next_mutation()).collect()
    }
}

fn spk_nodes(n: usize) -> Clusters {
    Clusters { prefix: "c", n, size: 12 }
}
fn swap_nodes(n: usize) -> Clusters {
    Clusters { prefix: "v", n, size: 12 }
}
fn people(n: usize) -> Clusters {
    Clusters { prefix: "p", n, size: 12 }
}
fn items(n: usize) -> Clusters {
    Clusters { prefix: "i", n, size: 4 }
}
fn par_nodes(n: usize) -> Clusters {
    Clusters { prefix: "a", n, size: 12 }
}
fn shortest_nodes(tiny: bool) -> Clusters {
    Clusters { prefix: "n", n: if tiny { 16 } else { 48 }, size: 8 }
}
fn road_nodes(tiny: bool) -> Clusters {
    let n = if tiny { 40 } else { 1000 };
    Clusters { prefix: "n", n, size: n }
}
/// The seed of the road graph's shape (not of its weights).
const ROAD_SHAPE_SEED: u64 = 0x5EED_60AD;
fn road(rng: &mut Rng, g: Clusters, x: usize, y: usize) -> Fact {
    ("road", vec![g.name(x), g.name(y), (1 + rng.below(9)).to_string()])
}
fn session_layers(tiny: bool) -> (usize, usize) {
    if tiny {
        (6, 6)
    } else {
        (24, 24)
    }
}

/// Example 1.2's relations over `n` people and `n` items. `friend` and
/// `cheaper` are rings within clusters (of 12 people, of 4 items), so
/// every `buys` answer has about the same small size whatever the seed;
/// `perfectFor` gives each person one random item.
fn gen_buys(rng: &mut Rng, edb: &mut Edb, n: usize) {
    let (p, i) = (people(n), items(n));
    for x in 0..n {
        edb.insert(("friend", vec![p.name(x), p.name(p.next(x))]));
        edb.insert(("cheaper", vec![i.name(x), i.name(i.next(x))]));
        edb.insert(("perfectFor", vec![p.name(x), i.name(i.any(rng))]));
    }
}

/// A client's generator. Mutations insert fresh facts and retract the
/// oldest facts this client inserted, so the EDB size stays steady.
#[derive(Debug, Clone)]
pub struct ClientStream {
    kind: Kind,
    tiny: bool,
    rng: Rng,
    /// The facts this client inserted, oldest first, per relation.
    owned: HashMap<&'static str, VecDeque<Fact>>,
    /// Mutations issued so far.
    mutations: usize,
    /// The generated EDB of each program: fresh facts avoid it, so a later
    /// retraction never removes a generated fact and sizes stay steady.
    base: Arc<Vec<Edb>>,
    /// Nodes with a parent, the constants of `sg` queries.
    sg_nodes: Vec<String>,
}

impl ClientStream {
    /// The next round of operations.
    pub fn round(&mut self) -> Vec<Op> {
        let q = |program, query| Op::Query { program, query };
        match self.kind {
            Kind::ServeSelective => {
                // Two halves of 19 selective queries and one mutation each:
                // 95% reads. One query in 38 is bounded: bounded elimination
                // evaluates the whole program, so each costs a full
                // fixpoint, and together with the reads that wait behind a
                // mutation's lock they must stay well under 10% of reads
                // for p90 to measure the selective path.
                let n = selective_n(self.tiny);
                let mut ops = Vec::with_capacity(40);
                for half in 0..2 {
                    let mut part = Vec::with_capacity(20);
                    for k in 0..19 {
                        let r = self.rng.below(n);
                        part.push(q(
                            0,
                            match k {
                                0..=7 => Query::BuysPerson(people(n).name(r)),
                                8..=10 => Query::BuysItem(items(n).name(r)),
                                18 if half == 0 => Query::Swap(swap_nodes(n).name(r)),
                                _ => Query::Spk(spk_nodes(n).name(r)),
                            },
                        ));
                    }
                    let m = self.next_mutation();
                    part.insert(self.rng.below(20), Op::Mutate { program: 0, mutation: m });
                    ops.extend(part);
                }
                ops
            }
            Kind::ServeWriteHeavy => {
                let n = write_heavy_n(self.tiny);
                let g = shortest_nodes(self.tiny);
                // Six reads and six mutations (two per mutated relation) in
                // a shuffled order, so the two connections' operations do
                // not fall into a fixed phase with each other.
                let mut ops = vec![
                    q(0, Query::Short),
                    q(0, Query::Unreach),
                    q(0, Query::Reach(g.name(self.rng.below(g.n)))),
                    q(0, Query::Reach(g.name(self.rng.below(g.n)))),
                    q(0, Query::BuysPerson(people(n).name(self.rng.below(n)))),
                    q(0, Query::Anc),
                ];
                for _ in 0..6 {
                    ops.push(Op::Mutate { program: 0, mutation: self.next_mutation() });
                }
                for i in (1..ops.len()).rev() {
                    ops.swap(i, self.rng.below(i + 1));
                }
                ops
            }
            Kind::SessionFixpoint => {
                let mut ops = vec![
                    Op::Mutate { program: 0, mutation: self.mutation(0, "edge", 2) },
                    q(0, Query::Tc),
                    Op::Mutate { program: 1, mutation: self.mutation(1, "road", 2) },
                    q(1, Query::Sp),
                    Op::Mutate { program: 0, mutation: self.mutation(0, "flat", 1) },
                ];
                for _ in 0..3 {
                    let a = self.sg_nodes[self.rng.below(self.sg_nodes.len())].clone();
                    ops.push(q(0, Query::Sg(a)));
                }
                ops
            }
        }
    }

    /// A fresh `pred` fact for this workload.
    fn fresh(&mut self, pred: &'static str) -> Fact {
        let rng = &mut self.rng;
        let n = match self.kind {
            Kind::ServeSelective => selective_n(self.tiny),
            _ => write_heavy_n(self.tiny),
        };
        match pred {
            "a1" => {
                let x = rng.below(n);
                spk_nodes(n).edge(rng, "a1", x)
            }
            "t0" => {
                let c = spk_nodes(n);
                let (x, y) = (c.any(rng), c.any(rng));
                ("t0", vec![c.name(x), c.name(y)])
            }
            "w" => {
                let g = shortest_nodes(self.tiny);
                let x = rng.below(g.n);
                ("w", vec![g.name(x), g.name(g.pick(rng, x)), (1 + rng.below(9)).to_string()])
            }
            "par" => {
                // From an earlier to a later member of one cluster, so
                // `par` stays acyclic.
                let a = par_nodes(n);
                let base = rng.below(n / a.size) * a.size;
                let x = rng.below(a.size - 1);
                let y = x + 1 + rng.below(a.size - 1 - x);
                ("par", vec![a.name(base + x), a.name(base + y)])
            }
            "edge" => {
                // Two nodes on from the base edges: widens one node's reach
                // by one per layer, so the closure's size barely moves.
                let (layers, width) = session_layers(self.tiny);
                let (l, i) = (rng.below(layers - 1), rng.below(width));
                ("edge", vec![format!("l{l}_{i}"), format!("l{}_{}", l + 1, (i + 2) % width)])
            }
            "road" => {
                // A short local road, which moves few distances.
                let g = road_nodes(self.tiny);
                let x = g.any(rng);
                road(rng, g, x, (x + 2) % g.n)
            }
            "flat" => {
                // Re-points a root's `flat` pair: changes which trees are
                // of the same generation.
                let trees = session_trees(self.tiny);
                ("flat", vec![format!("r{}", rng.below(trees)), format!("r{}", rng.below(trees))])
            }
            other => unreachable!("no generator for {other}"),
        }
    }

    /// Inserts `batch` fresh `pred` facts and, once the client holds enough
    /// of them, retracts its `batch` oldest ones.
    pub fn mutation(&mut self, program: usize, pred: &'static str, batch: usize) -> Mutation {
        let mut m = Mutation::default();
        while m.insert.len() < batch {
            let f = self.fresh(pred);
            let owned = self.owned.entry(pred).or_default();
            if !m.insert.contains(&f)
                && !owned.contains(&f)
                && !self.base[program].contains(f.0, &f.1)
            {
                m.insert.push(f);
            }
        }
        let owned = self.owned.entry(pred).or_default();
        if owned.len() >= 4 * batch {
            m.retract.extend(owned.drain(..batch));
        }
        owned.extend(m.insert.iter().cloned());
        m
    }

    /// The next mutation of a served workload. The mutated relation cycles
    /// in fixed shares, so the median falls inside one relation's cost,
    /// never between two. `a1` chords and `par` shortcuts change no answer
    /// but make maintenance work; `t0` and `w` facts change answers. Both
    /// workloads leave out `buys`' relations: their maintenance recomputes
    /// `buys` in two support copies and holds the master lock twice as long
    /// as the rest, so the reads waiting behind it swung the read tail
    /// with every slow patch of the machine.
    pub fn next_mutation(&mut self) -> Mutation {
        let k = self.mutations;
        self.mutations += 1;
        match self.kind {
            Kind::ServeSelective => self.mutation(0, ["a1", "t0", "t0"][k % 3], 1),
            _ => self.mutation(0, ["w", "par", "w"][k % 3], 2),
        }
    }
}
