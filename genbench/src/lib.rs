//! End-to-end benchmark of the GENesis pipeline as a user runs it:
//! MiniFor source text → `gospel_frontend::compile` → a `Session` with the
//! whole catalog registered (or a `GuardedSession`) → `apply` of each
//! optimizer at all points → `gospel_frontend::unparse`.
//!
//! The benchmark only calls the workspace crates' public functions. End-to-end
//! metrics come from untraced passes; per-layer metrics come from a separate
//! traced run that attaches one `gospel_trace::Recorder` and opens its own
//! spans around every public call. See `README.md` for the metric tables.

use genesis::{ApplyMode, ApplyReport, Bindings, CompiledOptimizer, Cost, Session};
use genesis_guard::{GuardConfig, GuardOutcome, GuardedSession};
use gospel_dep::DepGraph;
use gospel_exec::{ExecError, ExecValue, Trace};
use gospel_ir::{Opcode, Program};
use gospel_trace::report::{parse_trace, Report};
use gospel_trace::{Recorder, Span};
use gospel_workloads::generator::{self, GenConfig};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The six-optimizer chain of the `suite` and `validated` workloads.
pub const CHAIN: [&str; 6] = ["CTP", "CPP", "ICM", "FUS", "DCE", "CFO"];
/// The `scale` chain. ICM is left out: it is super-quadratic under writes
/// (51.6 s of 52.7 s at 882 generated statements), see `README.md`.
pub const SCALE_CHAIN: [&str; 4] = ["CTP", "CPP", "DCE", "CFO"];
/// Every catalog optimizer, queried read-only by the `points` workload.
pub const CATALOG: [&str; 11] = [
    "CPP", "CTP", "DCE", "ICM", "INX", "CRC", "BMP", "PAR", "LUR", "FUS", "CFO",
];
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Suite rounds (ten programs each) per pass.
const SUITE_ROUNDS: usize = 20;
/// The `scale` ladder: (requested statements, programs) per rung, ~440 /
/// 880 / 1760 live statements. Each rung holds the same number of
/// statements, so no single generated program sets a run's counts.
const LADDER: [(usize, usize); 3] = [(400, 8), (800, 4), (1600, 2)];
/// The `points` programs: ~660 live statements each, from a seed of their
/// own. The query's cost per program is heavy-tailed across generator seeds
/// (12 programs of ~330 statements took 2.3–3.3 s across six seeds), so
/// these programs stay fixed and `--seed` only picks the check's vectors.
const POINTS: (usize, usize) = (600, 3);
const POINTS_SEED: u64 = 7;
/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 15;
/// Input vectors for the output check (same shape as the guard's default).
const VECTORS: usize = 4;
const VECTOR_LEN: usize = 8;
const EXEC_STEP_LIMIT: u64 = 20_000_000;
/// Nominal time of one [`reference_sample`], in ns: timings are reported at
/// the speed at which the reference kernel takes this long.
const REFERENCE_NS: f64 = 1.2e6;
/// Work between two reference samples inside a pass.
const SAMPLE_EVERY_NS: f64 = 20e6;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The ten bundled programs through the six-optimizer chain.
    Suite,
    /// A ladder of generated programs through the four-optimizer chain.
    Scale,
    /// The read-only query (`Session::matches`) of all eleven optimizers.
    Points,
    /// The ten bundled programs through a `GuardedSession`.
    Validated,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Suite,
        Workload::Scale,
        Workload::Points,
        Workload::Validated,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Scale => "scale",
            Workload::Points => "points",
            Workload::Validated => "validated",
        }
    }

    /// The optimizers each program goes through.
    pub fn chain(self) -> &'static [&'static str] {
        match self {
            Workload::Suite | Workload::Validated => &CHAIN,
            Workload::Scale => &SCALE_CHAIN,
            Workload::Points => &CATALOG,
        }
    }

    /// How often each input appears in one pass.
    fn rounds(self) -> usize {
        match self {
            Workload::Suite => SUITE_ROUNDS,
            _ => 1,
        }
    }
}

/// One input program, as the source text a user hands to `genesis-opt`.
#[derive(Clone, Debug)]
pub struct Input {
    /// Display name.
    pub name: String,
    /// MiniFor source.
    pub source: String,
    /// Live statements after compilation.
    pub stmts: usize,
}

/// Everything built before the timed phase: the compiled catalog and the
/// workload's inputs.
#[derive(Clone, Debug)]
pub struct Setup {
    /// Which workload.
    pub workload: Workload,
    /// The optimizers registered in every session.
    pub catalog: Vec<CompiledOptimizer>,
    /// The distinct inputs; a pass runs each [`Workload::rounds`] times.
    pub inputs: Vec<Input>,
    /// Seed of the output check's input vectors.
    pub seed: u64,
    /// Nanoseconds `gospel_opts::catalog` took.
    pub catalog_ns: u64,
}

impl Setup {
    /// Compiles the catalog and builds the workload's inputs from `seed`.
    ///
    /// # Errors
    ///
    /// A catalog or input that fails to compile.
    pub fn new(workload: Workload, seed: u64) -> Result<Setup, String> {
        let t = Instant::now();
        let catalog = gospel_opts::catalog().map_err(|e| format!("catalog: {e}"))?;
        let catalog_ns = ns_since(t);
        let inputs = match workload {
            Workload::Suite | Workload::Validated => gospel_workloads::programs::SOURCES
                .iter()
                .map(|(name, src)| input(name.to_string(), src.to_string()))
                .collect::<Result<_, _>>()?,
            Workload::Scale => generated_set(seed, &LADDER)?,
            Workload::Points => generated_set(POINTS_SEED, &[POINTS])?,
        };
        Ok(Setup {
            workload,
            catalog,
            inputs,
            seed,
            catalog_ns,
        })
    }

    /// Registers `opt` in place of the catalog entry of the same name (the
    /// negative-control test swaps in a known-wrong CTP this way).
    pub fn replace(&mut self, opt: CompiledOptimizer) {
        self.catalog
            .retain(|o| !o.name.eq_ignore_ascii_case(&opt.name));
        self.catalog.push(opt);
    }

    fn session(&self, prog: Program) -> Session {
        let mut s = Session::new(prog);
        for opt in &self.catalog {
            s.register(opt.clone());
        }
        s
    }
}

fn input(name: String, source: String) -> Result<Input, String> {
    let prog = gospel_frontend::compile(&source).map_err(|e| format!("{name}: {e}"))?;
    Ok(Input {
        name,
        stmts: prog.len(),
        source,
    })
}

/// `count` generated programs of each requested size, in ladder order.
fn generated_set(seed: u64, rungs: &[(usize, usize)]) -> Result<Vec<Input>, String> {
    let mut out = Vec::new();
    for &(statements, count) in rungs {
        for k in 0..count {
            let stream = (statements * 1000 + k) as u64;
            out.push(generated(mix(seed, stream), statements, k)?);
        }
    }
    Ok(out)
}

/// A seeded generated program, unparsed to source. Variables scale with
/// size (the generator's fixed six scalars make dependence density grow
/// quadratically by construction).
fn generated(seed: u64, statements: usize, k: usize) -> Result<Input, String> {
    let cfg = GenConfig {
        statements,
        scalars: (statements / 10).max(2),
        arrays: (statements / 40).max(1),
        ..GenConfig::default()
    };
    let prog = generator::generate(seed, cfg);
    input(
        format!("gen{statements}.{k}"),
        gospel_frontend::unparse(&prog),
    )
}

/// SplitMix64 of `seed` and a stream index: independent per-input seeds.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed workload that uses only the standard library — string keys into
/// a `BTreeMap`, a clone and a sort, the pipeline's mix of allocation and
/// pointer chasing — and none of the workspace's code.
fn reference_kernel() -> u64 {
    let t = Instant::now();
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut x: u64 = 0x9E37;
    for i in 0..3000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.entry(format!("k{}", (x >> 33) % 700))
            .or_default()
            .push(x ^ i);
    }
    let mut all: Vec<u64> = map.values().flatten().copied().collect();
    all.sort_unstable();
    std::hint::black_box((all, map.clone()));
    ns_since(t)
}

/// The machine's current speed, as the faster of two back-to-back runs of
/// [`reference_kernel`]. The host's speed drifts by tens of percent over
/// seconds to minutes; every timing is scaled by `REFERENCE_NS` over the
/// samples taken around it, so runs made at different speeds compare.
fn reference_sample(rec: Option<&Arc<Recorder>>) -> u64 {
    let _s = Span::open(rec, "bench.reference", &[]);
    reference_kernel().min(reference_kernel())
}

/// Interleaves reference samples with a pass's work and keeps them out of
/// its timings. Positions are nanoseconds of work done since the pass began.
struct Clock<'r> {
    rec: Option<&'r Arc<Recorder>>,
    /// (position, sample), in position order.
    samples: Vec<(f64, u64)>,
    /// Work finished before the current program.
    done_ns: f64,
    /// Start of the current program (or of the gap after the last one), and
    /// the sampling time spent since.
    program_start: Instant,
    paused_ns: f64,
}

impl<'r> Clock<'r> {
    fn new(rec: Option<&'r Arc<Recorder>>) -> Clock<'r> {
        let mut clock = Clock {
            rec,
            samples: Vec::new(),
            done_ns: 0.0,
            program_start: Instant::now(),
            paused_ns: 0.0,
        };
        clock.sample();
        clock
    }

    fn position(&self) -> f64 {
        self.done_ns + ns_since(self.program_start) as f64 - self.paused_ns
    }

    fn sample(&mut self) {
        let at = self.position();
        let t = Instant::now();
        self.samples.push((at, reference_sample(self.rec)));
        self.paused_ns += ns_since(t) as f64;
    }

    /// Takes a sample when enough work has passed since the last one; called
    /// between the public calls of a program.
    fn tick(&mut self) {
        let last = self.samples.last().map_or(0.0, |s| s.0);
        if self.position() - last >= SAMPLE_EVERY_NS {
            self.sample();
        }
    }

    fn begin_program(&mut self) {
        self.program_start = Instant::now();
        self.paused_ns = 0.0;
    }

    /// Ends the current program; returns its latency without sampling time.
    fn end_program(&mut self) -> u64 {
        let ns = (ns_since(self.program_start) as f64 - self.paused_ns).max(0.0);
        self.done_ns += ns;
        self.begin_program();
        ns as u64
    }

    /// `REFERENCE_NS` over the work-weighted mean sample across
    /// `[from, to]`; each stretch between two samples counts at the mean of
    /// its ends.
    fn speed(&self, from: f64, to: f64) -> f64 {
        let (mut weight, mut sum) = (0.0, 0.0);
        for pair in self.samples.windows(2) {
            let overlap = pair[1].0.min(to) - pair[0].0.max(from);
            if overlap > 0.0 {
                weight += overlap;
                sum += overlap * (pair[0].1 + pair[1].1) as f64 / 2.0;
            }
        }
        if weight > 0.0 {
            REFERENCE_NS * weight / sum
        } else {
            // A zero-length stretch: use the nearest sample.
            let k = self
                .samples
                .iter()
                .find(|s| s.0 >= from)
                .or(self.samples.last());
            k.map_or(1.0, |s| REFERENCE_NS / s.1 as f64)
        }
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Declares [`Totals`] and its field-by-field sum.
macro_rules! totals {
    ($($field:ident),* $(,)?) => {
        /// Counts summed from `ApplyReport`s (or `MatchSet`s, on `points`).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
        struct Totals {
            $($field: u64,)*
        }

        impl Totals {
            fn add(&mut self, o: &Totals) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

totals!(
    applications,
    pattern_checks,
    dep_checks,
    transform_ops,
    anchor_visits,
    incremental_updates,
    full_recomputes,
    dirty_syms,
    edges_dropped,
    edges_added,
    candidates_pruned,
    cache_hits,
    dep_clause_rejects,
    degraded,
);

impl Totals {
    fn add_cost(&mut self, c: &Cost) {
        self.pattern_checks += c.pattern_checks;
        self.dep_checks += c.dep_checks;
        self.transform_ops += c.transform_ops;
        self.anchor_visits += c.anchor_visits;
    }

    fn add_report(&mut self, r: &ApplyReport) {
        self.applications += r.applications as u64;
        self.add_cost(&r.cost);
        self.incremental_updates += r.incremental_updates as u64;
        self.full_recomputes += r.full_recomputes as u64;
        self.dirty_syms += r.dep_dirty_syms as u64;
        self.edges_dropped += r.dep_edges_dropped as u64;
        self.edges_added += r.dep_edges_added as u64;
        self.candidates_pruned += r.candidates_pruned;
        self.cache_hits += r.cache_hits;
        self.dep_clause_rejects += r.dep_clause_rejects.iter().sum::<u64>();
        self.degraded += r.degraded.total();
    }
}

/// What one program's trip through the pipeline produced.
struct ProgramRun {
    input: usize,
    latency_ns: u64,
    /// Multiplies the run's timings to the reference speed (see [`Clock::speed`]).
    speed: f64,
    /// Wall time of each chain optimizer's `apply` (or `matches`).
    opt_ns: Vec<u64>,
    /// Applications (or points found) per chain optimizer.
    opt_counts: Vec<u64>,
    totals: Totals,
    /// The optimized program and its unparsed text.
    program: Option<Program>,
    output: String,
    /// `points`: each optimizer's first listed point.
    first_points: Vec<Option<Bindings>>,
    rejected: u64,
    checkpoints: u64,
    failure: Option<String>,
}

impl ProgramRun {
    /// Latency at the reference speed.
    fn time_ns(&self) -> f64 {
        self.latency_ns as f64 * self.speed
    }

    /// Summed optimizer time at the reference speed.
    fn opt_time_ns(&self) -> f64 {
        self.opt_ns.iter().sum::<u64>() as f64 * self.speed
    }

    /// Hash of everything a rerun with the same seed must reproduce.
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (&self.opt_counts, &self.totals, &self.output).hash(&mut h);
        self.program.as_ref().map(Program::len).hash(&mut h);
        (self.rejected, self.checkpoints, &self.failure).hash(&mut h);
        h.finish()
    }
}

/// Span names must be `'static`; each chain optimizer gets one per layer.
fn span_name(layer: &str, opt: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static NAMES: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let key = format!("{layer}.{opt}");
    let mut names = NAMES
        .get_or_init(Default::default)
        .lock()
        .expect("span-name table is only inserted into");
    names
        .entry(key.clone())
        .or_insert_with(|| Box::leak(key.into_boxed_str()))
}

/// The CLI's `--validate` configuration.
fn guard_config() -> GuardConfig {
    GuardConfig {
        verify_deps: true,
        ..GuardConfig::default()
    }
}

/// Source text in → optimized source text out, for one input. With a
/// recorder, every public call sits in a benchmark-side span and the
/// sessions emit their own events to the same recorder.
fn run_program(setup: &Setup, idx: usize, clock: &mut Clock) -> ProgramRun {
    let rec = clock.rec;
    let chain = setup.workload.chain();
    let mut run = ProgramRun {
        input: idx,
        latency_ns: 0,
        speed: 1.0,
        opt_ns: vec![0; chain.len()],
        opt_counts: vec![0; chain.len()],
        totals: Totals::default(),
        program: None,
        output: String::new(),
        first_points: Vec::new(),
        rejected: 0,
        checkpoints: 0,
        failure: None,
    };
    clock.begin_program();
    let program_span = Span::open(rec, "bench.program", &[]);
    let compiled = {
        let _s = Span::open(rec, "frontend.compile", &[]);
        gospel_frontend::compile(&setup.inputs[idx].source)
    };
    let prog = match compiled {
        Ok(p) => p,
        Err(e) => {
            run.failure = Some(format!("compile: {e}"));
            run.latency_ns = clock.end_program();
            return run;
        }
    };
    let out = match setup.workload {
        Workload::Suite | Workload::Scale => {
            let mut session = {
                let _s = Span::open(rec, "core.session", &[]);
                setup.session(prog)
            };
            session.set_recorder(rec.cloned());
            for (k, name) in chain.iter().enumerate() {
                clock.tick();
                let t = Instant::now();
                let span = Span::open(rec, span_name("core.apply", name), &[]);
                let result = session.apply(name, ApplyMode::AllPoints);
                drop(span);
                run.opt_ns[k] = ns_since(t);
                match result {
                    Ok(report) => {
                        run.opt_counts[k] = report.applications as u64;
                        run.totals.add_report(report);
                    }
                    Err(e) => {
                        run.failure = Some(format!("{name}: {e}"));
                        break;
                    }
                }
            }
            session.into_program()
        }
        Workload::Validated => {
            let mut guarded = {
                let _s = Span::open(rec, "core.session", &[]);
                let mut g = GuardedSession::new(prog, guard_config());
                for opt in &setup.catalog {
                    g.register(opt.clone());
                }
                g
            };
            guarded.set_recorder(rec.cloned());
            for (k, name) in chain.iter().enumerate() {
                clock.tick();
                let t = Instant::now();
                let span = Span::open(rec, span_name("guard.apply", name), &[]);
                let outcome = guarded.apply(name, ApplyMode::AllPoints);
                drop(span);
                run.opt_ns[k] = ns_since(t);
                match outcome {
                    Ok(GuardOutcome::Applied(report)) => {
                        run.opt_counts[k] = report.applications as u64;
                        run.totals.add_report(&report);
                    }
                    Ok(GuardOutcome::Rejected(report)) => {
                        run.rejected += 1;
                        run.failure
                            .get_or_insert(format!("guard rejected: {report}"));
                    }
                    Ok(GuardOutcome::Skipped { optimizer, reason }) => {
                        run.failure
                            .get_or_insert(format!("{optimizer} quarantined: {reason}"));
                    }
                    Err(e) => {
                        run.failure.get_or_insert(format!("{name}: {e}"));
                    }
                }
            }
            run.checkpoints = guarded.checkpoints() as u64;
            guarded.into_program()
        }
        Workload::Points => {
            // `Session::matches` emits no trace events of its own.
            let session = {
                let _s = Span::open(rec, "core.session", &[]);
                setup.session(prog)
            };
            for (k, name) in chain.iter().enumerate() {
                clock.tick();
                let t = Instant::now();
                let span = Span::open(rec, span_name("core.matches", name), &[]);
                let result = session.matches(name);
                drop(span);
                run.opt_ns[k] = ns_since(t);
                match result {
                    Ok(set) => {
                        run.opt_counts[k] = set.bindings.len() as u64;
                        run.totals.applications += set.bindings.len() as u64;
                        run.totals.add_cost(&set.cost);
                        run.first_points.push(set.bindings.into_iter().next());
                    }
                    Err(e) => {
                        run.failure = Some(format!("{name}: {e}"));
                        break;
                    }
                }
            }
            session.into_program()
        }
    };
    if setup.workload != Workload::Points {
        let _s = Span::open(rec, "frontend.unparse", &[]);
        run.output = gospel_frontend::unparse(&out);
    }
    run.program = Some(out);
    drop(program_span);
    run.latency_ns = clock.end_program();
    run
}

/// One pass over the workload's inputs.
struct Pass {
    /// Sum of the programs' latencies at the reference speed (the reference
    /// samples are not part of it).
    time_ns: f64,
    /// The same sum as measured.
    raw_ns: u64,
    /// Every reference sample of the pass.
    samples: Vec<u64>,
    runs: Vec<ProgramRun>,
}

fn run_pass(setup: &Setup, rec: Option<&Arc<Recorder>>) -> Pass {
    let span = Span::open(rec, "bench.pass", &[]);
    let mut clock = Clock::new(rec);
    let mut runs: Vec<ProgramRun> = Vec::new();
    let mut starts = Vec::new();
    for i in (0..setup.workload.rounds()).flat_map(|_| 0..setup.inputs.len()) {
        clock.tick();
        starts.push(clock.done_ns);
        runs.push(run_program(setup, i, &mut clock));
    }
    clock.sample();
    drop(span);
    for (run, from) in runs.iter_mut().zip(starts) {
        run.speed = clock.speed(from, from + run.latency_ns as f64);
    }
    Pass {
        time_ns: runs.iter().map(ProgramRun::time_ns).sum(),
        raw_ns: runs.iter().map(|r| r.latency_ns).sum(),
        samples: clock.samples.iter().map(|s| s.1).collect(),
        runs,
    }
}

/// Facts about the inputs gathered once per run, outside the timed phase.
struct Probe {
    vectors: Vec<Vec<ExecValue>>,
    /// Reference outputs of each input on each vector.
    refs: Vec<Vec<Result<Trace, ExecError>>>,
    /// Points listed by a read-only query of each chain optimizer, per
    /// input (empty on `points`, whose pipeline is that query).
    points: Vec<Vec<u64>>,
    edges: u64,
    analyze_ns: u64,
    /// `validated`: median unguarded apply wall of the chain over the
    /// inputs — the base of `guard.overhead_ratio`.
    unguarded_apply_ns: u64,
}

fn probe(setup: &Setup, rec: Option<&Arc<Recorder>>) -> Result<Probe, String> {
    let vectors: Vec<Vec<ExecValue>> = generator::input_vectors(setup.seed, VECTORS, VECTOR_LEN)
        .into_iter()
        .map(|v| v.into_iter().map(ExecValue::Int).collect())
        .collect();
    let chain = setup.workload.chain();
    let mut p = Probe {
        refs: Vec::new(),
        points: Vec::new(),
        edges: 0,
        analyze_ns: 0,
        unguarded_apply_ns: 0,
        vectors,
    };
    for input in &setup.inputs {
        let prog = gospel_frontend::compile(&input.source).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let graph = {
            let _s = Span::open(rec, "dep.analyze", &[]);
            DepGraph::analyze(&prog).map_err(|e| format!("{}: {e}", input.name))?
        };
        p.analyze_ns += ns_since(t);
        p.edges += graph.len() as u64;
        // A program without `read` writes the same on every vector.
        let reads = prog.iter().any(|id| prog.quad(id).op == Opcode::Read);
        let vectors = if reads {
            &p.vectors[..]
        } else {
            &p.vectors[..1]
        };
        p.refs.push({
            let _s = Span::open(rec, "exec.run", &[]);
            vectors
                .iter()
                .map(|v| gospel_exec::run_limited(&prog, v, EXEC_STEP_LIMIT))
                .collect()
        });
        if setup.workload == Workload::Points {
            p.points.push(Vec::new());
            continue;
        }
        let session = setup.session(prog);
        let mut found = Vec::with_capacity(chain.len());
        for name in chain {
            let _s = Span::open(rec, span_name("core.matches", name), &[]);
            let set = session.matches(name).map_err(|e| format!("{name}: {e}"))?;
            found.push(set.bindings.len() as u64);
        }
        p.points.push(found);
    }
    if setup.workload == Workload::Validated {
        let mut samples: Vec<u64> = (0..3)
            .map(|_| {
                let mut ns = 0;
                for input in &setup.inputs {
                    let prog = gospel_frontend::compile(&input.source).expect("compiled above");
                    let mut session = setup.session(prog);
                    for name in chain {
                        let t = Instant::now();
                        let _ = session.apply(name, ApplyMode::AllPoints);
                        ns += ns_since(t);
                    }
                }
                ns
            })
            .collect();
        p.unguarded_apply_ns = median_u64(&mut samples);
    }
    Ok(p)
}

/// The verdict on one input's output, made at its first sighting.
struct Checked {
    fingerprint: u64,
    verdict: Result<(), String>,
    steps_in: u64,
    steps_out: u64,
    stmts_out: u64,
    opt_counts: Vec<u64>,
    totals: Totals,
    rejected: u64,
    checkpoints: u64,
}

/// Checks an output against its input under `gospel-exec`: the optimized
/// program and the recompiled text of its unparse must both write what the
/// input writes on every vector where the input runs cleanly. On `points`,
/// each optimizer's first listed point must be the one a first-point
/// `apply` picks, and that single application must preserve behaviour.
fn check(setup: &Setup, probe: &Probe, run: &ProgramRun, rec: Option<&Arc<Recorder>>) -> Checked {
    let refs = &probe.refs[run.input];
    let mut steps_in = 0;
    let mut steps_out = 0;
    let mut compare = |prog: &Program, what: &str, count: bool| -> Result<(), String> {
        for (i, (v, before)) in probe.vectors.iter().zip(refs).enumerate() {
            let Ok(before) = before else { continue };
            let after = {
                let _s = Span::open(rec, "exec.run", &[]);
                gospel_exec::run_limited(prog, v, EXEC_STEP_LIMIT)
            };
            match after {
                Err(e) => return Err(format!("{what} faults on vector {i}: {e}")),
                Ok(after) if !before.same_outputs(&after) => {
                    return Err(format!(
                        "{what} writes differ from the input's on vector {i} at output {:?}",
                        before.first_mismatch(&after)
                    ))
                }
                Ok(after) => {
                    if count {
                        steps_in += before.steps;
                        steps_out += after.steps;
                    }
                }
            }
        }
        Ok(())
    };
    let verdict = (|| {
        if let Some(f) = &run.failure {
            return Err(f.clone());
        }
        let prog = run.program.as_ref().ok_or("no output program")?;
        gospel_ir::validate(prog).map_err(|e| format!("invalid output: {e}"))?;
        compare(prog, "output", true)?;
        if setup.workload == Workload::Points {
            return check_first_points(setup, run, &mut compare);
        }
        let again = gospel_frontend::compile(&run.output)
            .map_err(|e| format!("unparsed output does not recompile: {e}"))?;
        if again.structurally_eq(prog) {
            return Ok(());
        }
        compare(&again, "recompiled output", false)
    })();
    Checked {
        fingerprint: run.fingerprint(),
        verdict: verdict.map_err(|e| format!("{}: {e}", setup.inputs[run.input].name)),
        steps_in,
        steps_out,
        stmts_out: run.program.as_ref().map_or(0, |p| p.len() as u64),
        opt_counts: run.opt_counts.clone(),
        totals: run.totals,
        rejected: run.rejected,
        checkpoints: run.checkpoints,
    }
}

fn check_first_points(
    setup: &Setup,
    run: &ProgramRun,
    compare: &mut dyn FnMut(&Program, &str, bool) -> Result<(), String>,
) -> Result<(), String> {
    let prog = run.program.as_ref().ok_or("no output program")?;
    for (name, first) in CATALOG.iter().zip(&run.first_points) {
        let mut session = setup.session(prog.clone());
        let report = session
            .apply(name, ApplyMode::FirstPoint)
            .map_err(|e| format!("{name} first point: {e}"))?;
        // The applied bindings also hold the names its actions bound.
        let agrees = match (first, report.points.first()) {
            (None, None) => true,
            (Some(listed), Some(applied)) => listed.iter().all(|(k, v)| applied.get(k) == Some(v)),
            _ => false,
        };
        if !agrees {
            return Err(format!(
                "{name}: the query's first point is not the point a first-point apply picks"
            ));
        }
        compare(
            session.program(),
            &format!("{name} at its first point"),
            false,
        )?;
    }
    Ok(())
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn median_u64(xs: &mut [u64]) -> u64 {
    let mut f: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    median(&mut f) as u64
}

/// Nearest-rank quantile of a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Programs attempted in the timed passes.
    pub attempted: u64,
    /// Programs that errored, were rejected, failed the output check, or
    /// did not reproduce the first pass's counts and text.
    pub failed: u64,
    /// One line per distinct failure.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Hash of every input's output text and counts: equal for equal seeds.
    pub fingerprint: u64,
    /// The traced run's per-layer self/total table (empty when untraced).
    pub layer_table: String,
}

impl Outcome {
    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Run options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase; at least one pass always runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Where the traced run writes its JSONL trace and report.
    pub out_dir: Option<PathBuf>,
}

/// Runs `workload`: set-up [`SETUP_REPEATS`] times (its median time at the
/// reference speed is `setup_s`), then [`run_with`].
///
/// # Errors
///
/// Set-up failures (a catalog or input that does not compile).
pub fn run(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut catalog_ns = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let before = reference_sample(None);
        let t = Instant::now();
        let s = Setup::new(workload, opts.seed)?;
        let took = t.elapsed().as_secs_f64();
        let after = reference_sample(None);
        setup_s.push(took * 2.0 * REFERENCE_NS / (before + after) as f64);
        catalog_ns.push(s.catalog_ns);
        setup = Some(s);
    }
    let mut setup = setup.expect("SETUP_REPEATS > 0");
    setup.catalog_ns = median_u64(&mut catalog_ns);
    run_with(&setup, median(&mut setup_s), opts)
}

/// Runs the timed phase over a prepared set-up and checks every output.
///
/// # Errors
///
/// Probe failures (an input the dependence analysis rejects) and trace
/// output errors.
pub fn run_with(setup: &Setup, setup_s: f64, opts: &Options) -> Result<Outcome, String> {
    let probe_rec = opts.trace.then(|| Arc::new(Recorder::new()));
    let t = Instant::now();
    let probe = probe(setup, probe_rec.as_ref())?;
    eprintln!("probe: {:.3} s", t.elapsed().as_secs_f64());
    let mut acc = Acc::default();
    let mut checked: BTreeMap<usize, Checked> = BTreeMap::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let started = Instant::now();
    let mut pair = 0usize;
    loop {
        // Traced runs alternate untraced and traced passes, swapping which
        // goes first, so `trace.overhead_pct` compares neighbours.
        let order: &[bool] = match (opts.trace, pair % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &with_trace in order {
            let rec = with_trace.then(|| Arc::new(Recorder::new()));
            let pass = run_pass(setup, rec.as_ref());
            acc.take(
                setup,
                &probe,
                &pass,
                &mut checked,
                probe_rec.as_ref(),
                with_trace,
            );
            if let Some(rec) = rec {
                traced.push(TracedPass::from_recorder(
                    &rec,
                    pass.time_ns,
                    traced.is_empty(),
                )?);
            }
        }
        pair += 1;
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    eprintln!(
        "untraced passes (ms at reference speed / as measured): {:?}",
        acc.walls
            .iter()
            .zip(&acc.raw_walls)
            .map(|(w, r)| (*w as u64 / 1_000_000, r / 1_000_000))
            .collect::<Vec<_>>()
    );
    let mut fingerprint = std::collections::hash_map::DefaultHasher::new();
    for (i, c) in &checked {
        (i, c.fingerprint).hash(&mut fingerprint);
        if let Err(e) = &c.verdict {
            acc.failures.push(e.clone());
        }
    }
    acc.failures.sort();
    acc.failures.dedup();
    let sum = Summary::new(setup, &probe, &checked);
    eprintln!("input          stmts_in stmts_out  applied   points  median_ms");
    for (i, c) in &checked {
        let mut ms: Vec<f64> = acc
            .latencies
            .iter()
            .filter(|l| l.0 == *i)
            .map(|l| l.1 / 1e6)
            .collect();
        eprintln!(
            "{:<14}{:>9}{:>10}{:>9}{:>9}{:>11.3}",
            setup.inputs[*i].name,
            setup.inputs[*i].stmts,
            c.stmts_out,
            c.totals.applications,
            probe.points[*i].iter().sum::<u64>(),
            median(&mut ms)
        );
    }
    let mut outcome = Outcome {
        attempted: acc.attempted,
        failed: acc.failed,
        failures: acc.failures.clone(),
        metrics: Vec::new(),
        fingerprint: fingerprint.finish(),
        layer_table: String::new(),
    };
    if opts.trace {
        let probe_report = report_of(&probe_rec.expect("traced").drain_events())?;
        outcome.metrics = layer_metrics(setup, &probe, &sum, &acc, &traced, &probe_report);
        outcome.layer_table = layer_table(&traced, &probe_report);
        if let (Some(dir), Some(first)) = (&opts.out_dir, traced.first()) {
            write_trace(dir, setup.workload, first, &outcome.layer_table)?;
        }
    } else {
        outcome.metrics = end_to_end(setup_s, &sum, &acc);
    }
    Ok(outcome)
}

/// Accumulated over every pass of a run.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Untraced pass times at the reference speed, and as measured.
    walls: Vec<f64>,
    raw_walls: Vec<u64>,
    /// Traced pass times at the reference speed.
    traced_walls: Vec<f64>,
    /// Every reference sample.
    samples: Vec<u64>,
    /// (input, latency) of every untraced program run.
    latencies: Vec<(usize, f64)>,
    /// Program latencies of each untraced pass.
    pass_latencies: Vec<Vec<f64>>,
    stmts_in: u64,
    opt_ns: f64,
    opt_counts: u64,
    /// Per untraced pass, (statements, ns per application) per program size.
    ladder: Vec<Vec<(f64, f64)>>,
}

impl Acc {
    fn take(
        &mut self,
        setup: &Setup,
        probe: &Probe,
        pass: &Pass,
        checked: &mut BTreeMap<usize, Checked>,
        rec: Option<&Arc<Recorder>>,
        traced: bool,
    ) {
        self.samples.extend(&pass.samples);
        if traced {
            self.traced_walls.push(pass.time_ns);
        } else {
            self.walls.push(pass.time_ns);
            self.raw_walls.push(pass.raw_ns);
            self.pass_latencies
                .push(pass.runs.iter().map(ProgramRun::time_ns).collect());
            let mut rungs: BTreeMap<usize, (f64, u64)> = BTreeMap::new();
            for r in &pass.runs {
                let rung = rungs.entry(setup.inputs[r.input].stmts).or_default();
                rung.0 += r.opt_time_ns();
                rung.1 += r.opt_counts.iter().sum::<u64>();
            }
            self.ladder.push(
                rungs
                    .into_iter()
                    .map(|(stmts, (ns, apps))| (stmts as f64, ns / apps.max(1) as f64))
                    .collect(),
            );
        }
        for run in &pass.runs {
            self.attempted += 1;
            if !traced {
                self.latencies.push((run.input, run.time_ns()));
                self.stmts_in += setup.inputs[run.input].stmts as u64;
                self.opt_ns += run.opt_time_ns();
                self.opt_counts += run.opt_counts.iter().sum::<u64>();
            }
            let c = checked
                .entry(run.input)
                .or_insert_with(|| check(setup, probe, run, rec));
            if c.fingerprint != run.fingerprint() {
                self.failed += 1;
                self.failures.push(format!(
                    "{}: a rerun produced different counts or output text",
                    setup.inputs[run.input].name
                ));
            } else if c.verdict.is_err() {
                self.failed += 1;
            }
        }
    }
}

/// Per-input-set counts, from each input's first sighting.
struct Summary {
    stmts_in: u64,
    stmts_out: u64,
    steps_in: u64,
    steps_out: u64,
    points_found: u64,
    totals: Totals,
    opt_counts: Vec<u64>,
    rejected: u64,
    checkpoints: u64,
}

impl Summary {
    fn new(setup: &Setup, probe: &Probe, checked: &BTreeMap<usize, Checked>) -> Summary {
        let mut s = Summary {
            stmts_in: setup.inputs.iter().map(|i| i.stmts as u64).sum(),
            stmts_out: 0,
            steps_in: 0,
            steps_out: 0,
            points_found: probe.points.iter().flatten().sum(),
            totals: Totals::default(),
            opt_counts: vec![0; setup.workload.chain().len()],
            rejected: 0,
            checkpoints: 0,
        };
        for c in checked.values() {
            s.stmts_out += c.stmts_out;
            s.steps_in += c.steps_in;
            s.steps_out += c.steps_out;
            s.totals.add(&c.totals);
            for (a, b) in s.opt_counts.iter_mut().zip(&c.opt_counts) {
                *a += b;
            }
            s.rejected += c.rejected;
            s.checkpoints += c.checkpoints;
        }
        if setup.workload == Workload::Points {
            s.points_found = s.totals.applications;
        }
        s
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn end_to_end(setup_s: f64, sum: &Summary, acc: &Acc) -> Vec<Metric> {
    let mut walls: Vec<f64> = acc.walls.iter().map(|w| w / 1e9).collect();
    let total_wall: f64 = acc.walls.iter().sum();
    // Each pass runs the same programs, so a quantile over the whole run
    // lands on the boundary between two programs' latency groups and reads
    // one group's extreme; the median over passes of each pass's quantile
    // does not.
    let ms = |q| {
        let mut per_pass: Vec<f64> = acc
            .pass_latencies
            .iter()
            .map(|l| {
                let mut l = l.clone();
                l.sort_by(f64::total_cmp);
                quantile(&l, q)
            })
            .collect();
        median(&mut per_pass) / 1e6
    };
    vec![
        metric("setup_s", setup_s, "s"),
        metric("run_s", median(&mut walls), "s"),
        metric(
            "throughput_stmts_per_s",
            acc.stmts_in as f64 / (total_wall / 1e9),
            "stmts/s",
        ),
        metric("program_ms_p50", ms(0.5), "ms"),
        metric("program_ms_p90", ms(0.9), "ms"),
        metric("program_ms_p99", ms(0.99), "ms"),
        metric(
            "ms_per_application",
            acc.opt_ns / acc.opt_counts.max(1) as f64 / 1e6,
            "ms",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("applications", sum.totals.applications as f64, "count"),
        metric("points_found", sum.points_found as f64, "count"),
        metric(
            "exec_steps_ratio",
            ratio(sum.steps_out, sum.steps_in),
            "ratio",
        ),
        metric(
            "stmts_out_ratio",
            ratio(sum.stmts_out, sum.stmts_in),
            "ratio",
        ),
        metric(
            "passed_frac",
            1.0 - ratio(acc.failed, acc.attempted),
            "fraction",
        ),
    ]
}

/// What one traced pass's trace says, folded by `gospel_trace::report`.
struct TracedPass {
    /// The pass's JSONL trace; kept for the first traced pass only.
    jsonl: Option<String>,
    report: Report,
    histograms: BTreeMap<String, u64>,
    wall_ns: f64,
}

impl TracedPass {
    fn from_recorder(rec: &Recorder, wall_ns: f64, keep: bool) -> Result<TracedPass, String> {
        let histograms = rec
            .snapshot()
            .histograms
            .into_iter()
            .map(|(k, h)| (k, h.sum))
            .collect();
        let jsonl = to_jsonl(&rec.drain_events());
        let report = Report::build(&[parse_trace(&jsonl)?]);
        Ok(TracedPass {
            jsonl: keep.then_some(jsonl),
            report,
            histograms,
            wall_ns,
        })
    }
}

fn to_jsonl(events: &[gospel_trace::Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    out
}

fn report_of(events: &[gospel_trace::Event]) -> Result<Report, String> {
    Ok(Report::build(&[parse_trace(&to_jsonl(events))?]))
}

fn phase_total(r: &Report, name: &str) -> u64 {
    r.phases
        .iter()
        .find(|p| p.name == name)
        .map_or(0, |p| p.total_ns)
}

/// A traced pass's wall time less its reference samples.
fn pass_work_ns(r: &Report) -> u64 {
    phase_total(r, "bench.pass").saturating_sub(phase_total(r, "bench.reference"))
}

fn phase_self(r: &Report, name: &str) -> u64 {
    r.phases
        .iter()
        .find(|p| p.name == name)
        .map_or(0, |p| p.self_ns)
}

/// Median over traced passes of `f`, per input set.
fn per_pass(setup: &Setup, traced: &[TracedPass], f: impl Fn(&TracedPass) -> u64) -> f64 {
    let mut xs: Vec<f64> = traced.iter().map(|t| f(t) as f64).collect();
    median(&mut xs) / setup.workload.rounds() as f64
}

fn layer_metrics(
    setup: &Setup,
    probe: &Probe,
    sum: &Summary,
    acc: &Acc,
    traced: &[TracedPass],
    probe_report: &Report,
) -> Vec<Metric> {
    let t = &sum.totals;
    let span = |name: &'static str| per_pass(setup, traced, |p| phase_total(&p.report, name));
    let hist = |name: &'static str| {
        per_pass(setup, traced, |p| {
            p.histograms.get(name).copied().unwrap_or(0)
        })
    };
    let chain = setup.workload.chain();
    let mut m = vec![
        metric("frontend.compile_ns", span("frontend.compile"), "ns"),
        metric("frontend.unparse_ns", span("frontend.unparse"), "ns"),
        metric("frontend.stmts_in", sum.stmts_in as f64, "count"),
        metric("frontend.stmts_out", sum.stmts_out as f64, "count"),
        metric("opt.catalog_ns", setup.catalog_ns as f64, "ns"),
        metric("dep.analyze_ns", probe.analyze_ns as f64, "ns"),
        metric("dep.edges", probe.edges as f64, "count"),
        metric(
            "dep.incremental_updates",
            t.incremental_updates as f64,
            "count",
        ),
        metric("dep.full_recomputes", t.full_recomputes as f64, "count"),
        metric("dep.dirty_syms", t.dirty_syms as f64, "count"),
        metric("dep.edges_dropped", t.edges_dropped as f64, "count"),
        metric("dep.edges_added", t.edges_added as f64, "count"),
        metric(
            "dep.churn_per_application",
            ratio(t.edges_dropped + t.edges_added, t.applications),
            "edges",
        ),
        metric("dep.update_ns", hist("dep.update_ns"), "ns"),
    ];
    for name in CATALOG {
        let k = chain.iter().position(|c| *c == name);
        let apply = span_name("core.apply", name);
        let applies = k.is_some() && setup.workload != Workload::Points;
        m.push(metric(
            format!("core.apply_ns.{name}"),
            if applies { span(apply) } else { 0.0 },
            "ns",
        ));
        m.push(metric(
            format!("core.applications.{name}"),
            match k {
                Some(k) if applies => sum.opt_counts[k] as f64,
                _ => 0.0,
            },
            "count",
        ));
        let matches = span_name("core.matches", name);
        let (matches_ns, points) = if setup.workload == Workload::Points {
            (span(matches), k.map_or(0, |k| sum.opt_counts[k]))
        } else {
            let points = k.map_or(0, |k| probe.points.iter().map(|p| p[k]).sum());
            (phase_total(probe_report, matches) as f64, points)
        };
        m.push(metric(format!("core.matches_ns.{name}"), matches_ns, "ns"));
        m.push(metric(
            format!("core.points.{name}"),
            points as f64,
            "count",
        ));
    }
    m.extend([
        metric("cost.pattern_checks", t.pattern_checks as f64, "count"),
        metric("cost.dep_checks", t.dep_checks as f64, "count"),
        metric("cost.transform_ops", t.transform_ops as f64, "count"),
        metric("cost.anchor_visits", t.anchor_visits as f64, "count"),
        metric(
            "cost.dep_checks_per_application",
            ratio(t.dep_checks, t.applications),
            "count",
        ),
        metric(
            "core.useful_ratio",
            ratio(t.applications, t.anchor_visits),
            "ratio",
        ),
        metric(
            "core.dep_clause_rejects",
            t.dep_clause_rejects as f64,
            "count",
        ),
        metric("core.degraded", t.degraded as f64, "count"),
        metric("core.cache_hits", t.cache_hits as f64, "count"),
        metric(
            "core.candidates_pruned",
            t.candidates_pruned as f64,
            "count",
        ),
        metric("core.session_ns", span("core.session"), "ns"),
        metric("driver.search_ns", hist("driver.search_ns"), "ns"),
        metric("driver.pattern_ns", hist("driver.pattern_ns"), "ns"),
        metric("driver.actions_ns", hist("driver.actions_ns"), "ns"),
    ]);
    let guarded = setup.workload == Workload::Validated;
    for name in CHAIN {
        let ns = if guarded {
            span(span_name("guard.apply", name))
        } else {
            0.0
        };
        m.push(metric(format!("guard.apply_ns.{name}"), ns, "ns"));
    }
    let guard_ns: f64 = CHAIN
        .iter()
        .map(|n| span(span_name("guard.apply", n)))
        .sum();
    m.extend([
        metric("guard.rejected", sum.rejected as f64, "count"),
        metric("guard.checkpoints", sum.checkpoints as f64, "count"),
        metric(
            "guard.overhead_ratio",
            if guarded && probe.unguarded_apply_ns > 0 {
                guard_ns / probe.unguarded_apply_ns as f64
            } else {
                0.0
            },
            "ratio",
        ),
        metric("guard.apply_span_ns", span("guard.apply"), "ns"),
        metric(
            "exec.run_ns",
            phase_total(probe_report, "exec.run") as f64,
            "ns",
        ),
        metric("exec.steps_in", sum.steps_in as f64, "count"),
        metric("exec.steps_out", sum.steps_out as f64, "count"),
    ]);
    let mut plain = acc.walls.clone();
    let mut with = acc.traced_walls.clone();
    let overhead = (median(&mut with) / median(&mut plain) - 1.0) * 100.0;
    let unattributed = |p: &TracedPass| {
        let r = &p.report;
        ratio(
            phase_self(r, "bench.pass") + phase_self(r, "bench.program"),
            pass_work_ns(r),
        )
    };
    let mut samples: Vec<f64> = acc.samples.iter().map(|&k| k as f64).collect();
    let mut shares: Vec<f64> = traced.iter().map(unattributed).collect();
    m.extend([
        metric("trace.overhead_pct", overhead, "%"),
        metric("trace.unattributed_share", median(&mut shares), "fraction"),
        metric("machine.reference_ns", median(&mut samples), "ns"),
        metric(
            "scale.ms_per_application_exponent",
            if setup.workload == Workload::Scale {
                ladder_exponent(&acc.ladder)
            } else {
                0.0
            },
            "slope",
        ),
    ]);
    m
}

/// Median over passes of the least-squares slope of log(ms/application)
/// against log(statements) across the ladder's rungs.
fn ladder_exponent(ladder: &[Vec<(f64, f64)>]) -> f64 {
    let mut slopes: Vec<f64> = ladder
        .iter()
        .filter(|rungs| rungs.len() >= 2)
        .map(|rungs| {
            let pts: Vec<(f64, f64)> = rungs.iter().map(|(x, y)| (x.ln(), y.ln())).collect();
            let n = pts.len() as f64;
            let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
            let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
            let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
            let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
            sxy / sxx
        })
        .collect();
    median(&mut slopes)
}

/// The layer a span belongs to, by its name's first segment.
fn layer_of(span: &str) -> &'static str {
    match span.split('.').next().unwrap_or("") {
        "frontend" => "frontend",
        "dep" => "dep",
        "core" | "driver" | "automaton" | "search" => "core",
        "guard" => "guard",
        "exec" => "exec",
        _ if span == "bench.reference" => "reference",
        _ => "unattributed",
    }
}

/// Self time per layer (median traced pass) plus every report phase.
fn layer_table(traced: &[TracedPass], probe_report: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let Some(mid) = median_pass(traced) else {
        return out;
    };
    let total = pass_work_ns(&mid.report).max(1);
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for p in &mid.report.phases {
        *layers.entry(layer_of(&p.name)).or_default() += p.self_ns;
    }
    let _ = writeln!(
        out,
        "layer self time, median traced pass ({total} ns without reference samples):"
    );
    for (layer, ns) in &layers {
        let _ = writeln!(
            out,
            "  {layer:<14}{ns:>14} ns  {:>6.2}%",
            100.0 * *ns as f64 / total as f64
        );
    }
    for (name, ns) in [
        ("dep.update_ns", mid.histograms.get("dep.update_ns")),
        ("driver.search_ns", mid.histograms.get("driver.search_ns")),
        ("driver.pattern_ns", mid.histograms.get("driver.pattern_ns")),
        ("driver.actions_ns", mid.histograms.get("driver.actions_ns")),
    ] {
        let ns = ns.copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "  (histogram) {name:<18}{ns:>14} ns  {:>6.2}%",
            100.0 * ns as f64 / total as f64
        );
    }
    let _ = writeln!(out, "\nspan phases, median traced pass (self / total ns):");
    for p in &mid.report.phases {
        let _ = writeln!(
            out,
            "  {:<28}{:>8} spans {:>14} {:>14}",
            p.name, p.spans, p.self_ns, p.total_ns
        );
    }
    let _ = writeln!(out, "\nprobe phases, outside the passes (self / total ns):");
    for p in &probe_report.phases {
        let _ = writeln!(
            out,
            "  {:<28}{:>8} spans {:>14} {:>14}",
            p.name, p.spans, p.self_ns, p.total_ns
        );
    }
    out
}

fn median_pass(traced: &[TracedPass]) -> Option<&TracedPass> {
    let mut order: Vec<&TracedPass> = traced.iter().collect();
    order.sort_by(|a, b| a.wall_ns.total_cmp(&b.wall_ns));
    order.get(order.len() / 2).copied()
}

fn write_trace(dir: &PathBuf, w: Workload, pass: &TracedPass, table: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let jsonl = dir.join(format!("{}.trace.jsonl", w.name()));
    std::fs::write(&jsonl, pass.jsonl.as_deref().unwrap_or_default())
        .map_err(|e| format!("{}: {e}", jsonl.display()))?;
    let text = dir.join(format!("{}.report.txt", w.name()));
    std::fs::write(&text, format!("{table}\n{}", pass.report.to_text()))
        .map_err(|e| format!("{}: {e}", text.display()))
}
