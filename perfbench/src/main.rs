//! `uic-perfbench`: the workspace's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-repeat --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Three workloads over the Orkut stand-in at scale 1.0 (100k nodes,
//! ~3.0M arcs): `serve-repeat` (open loop of repeat `warm-grd` queries
//! against an in-process `uic-serve`), `serve-cold` (closed loop of
//! never-seen arena seeds) and `offline-solve` (registry `bundle-grd`
//! solves with welfare scoring, no server). `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs an untraced and a traced half,
//! replays the workload's inputs through the layers' public functions,
//! and prints the per-layer metrics. Correctness and work-count checks
//! run outside the measured phase and fail the run. The last line of
//! standard output is the JSON result; see `README.md`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uic_core::{score_report, Allocator, SolveCtx, WelMax, WelMaxInstance};
use uic_datasets::{named_network, NamedNetwork, TwoItemConfig};
use uic_diffusion::{Allocation, SolveReport, WelfareEstimator};
use uic_graph::Graph;
use uic_im::{node_selection, prima, DiffusionModel, RrCollection, SelectionPlan};
use uic_perfbench::json::Json;
use uic_perfbench::load::{self, ms, Record, Status, Summary, WallClock};
use uic_perfbench::report::{Metric, Outcome};
use uic_perfbench::sched::poisson_schedule;
use uic_perfbench::stats;
use uic_perfbench::trace::Trace;
use uic_serve::{report_json, Client, Response, Server, ServerConfig, ServerHandle};
use uic_util::{split_seed, UicRng};

/// The graph every workload runs on, built the same way on every run.
const NETWORK: NamedNetwork = NamedNetwork::Orkut;
const SCALE: f64 = 1.0;
const GRAPH_SEED: u64 = 42;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Load connections (one generator thread each) and server workers.
const CONNS: usize = 2;
const WORKERS: usize = 2;

/// serve-repeat: offered Poisson rate over both connections.
const REPEAT_RATE_RPS: f64 = 20.0;
/// serve-repeat: arena seeds × budget pairs, each also asked scored.
const REPEAT_ARENAS: usize = 4;
const REPEAT_BUDGETS: [[u32; 2]; 3] = [[10, 5], [25, 10], [50, 20]];
/// serve-repeat: the fixed seed the hot arenas' seeds derive from.
const REPEAT_ARENA_SEED: u64 = 0xA7E4A;
/// Welfare samples of a scored serve request.
const SERVE_SIMS: u32 = 8;

/// serve-cold: the one request shape, and the arena memory cap that
/// makes resident arenas plateau (about four orkut-scale-1 arenas).
const COLD_BUDGETS: [u32; 2] = [25, 10];
const COLD_ARENA_BUDGET: usize = 64 << 20;
/// serve-cold: requests each connection makes at least, so that each
/// has a first request to check and replay.
const COLD_MIN_PER_CONN: usize = 1;

/// offline-solve: budgets and welfare samples of every solve.
const OFFLINE_BUDGETS: [u32; 2] = [25, 10];
const OFFLINE_SIMS: u32 = 256;

/// PRIMA parameters of `warm-grd` / `bundle-grd` (the paper defaults).
const EPS: f64 = 0.5;
const ELL: f64 = 1.0;

/// `ping` round trips timed for `wire.ping_p50_us`.
const PINGS: usize = 200;
/// `SelectionPlan::slice` calls timed per replayed plan.
const SLICE_REPS: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeRepeat,
    ServeCold,
    OfflineSolve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-repeat" => Some(Workload::ServeRepeat),
            "serve-cold" => Some(Workload::ServeCold),
            "offline-solve" => Some(Workload::OfflineSolve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeRepeat => "serve-repeat",
            Workload::ServeCold => "serve-cold",
            Workload::OfflineSolve => "offline-solve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("uic-perfbench: {e}");
            eprintln!(
                "usage: uic-perfbench --workload serve-repeat|serve-cold|offline-solve \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // The graph must be generated the same way on every run; a snapshot
    // cache would turn the first run's build into later runs' load.
    std::env::remove_var(uic_datasets::CACHE_ENV_VAR);
    let mut bench = Bench::new(&args);
    match args.workload {
        Workload::ServeRepeat => bench.serve_repeat(),
        Workload::ServeCold => bench.serve_cold(),
        Workload::OfflineSolve => bench.offline_solve(),
    }
    bench.finish();
}

/// One solver request: what the server is asked and what the offline
/// reference solves.
#[derive(Debug, Clone)]
struct Spec {
    solver: &'static str,
    seed: u64,
    budgets: [u32; 2],
    sims: u32,
    config: u8,
}

impl Spec {
    fn text(&self) -> String {
        format!(
            "{} budgets={},{} seed={} sims={} config={}",
            self.solver, self.budgets[0], self.budgets[1], self.seed, self.sims, self.config
        )
    }

    fn ctx(&self) -> SolveCtx {
        SolveCtx::new(self.seed).with_sims(self.sims)
    }

    fn solver_and_instance<'g>(&self, g: &'g Graph) -> (Box<dyn Allocator>, WelMaxInstance<'g>) {
        let (solver, objective) =
            <dyn Allocator>::parse_with_objective(self.solver).expect("registry solver");
        let inst = WelMax::on(g)
            .model(TwoItemConfig::new(self.config).model())
            .budgets(self.budgets)
            .any_item_order()
            .objective_spec(objective)
            .build()
            .expect("valid instance");
        (solver, inst)
    }

    fn max_budget(&self) -> u32 {
        self.budgets[0].max(self.budgets[1])
    }
}

/// A seed for a request, kept to 48 bits so request text stays short.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    split_seed(seed, stream) >> 16
}

/// The parts of an OK envelope the benchmark reads.
#[derive(Debug, Clone)]
struct Envelope {
    result: String,
    elapsed_us: f64,
    selection_us: f64,
    topup_us: f64,
    scoring_us: f64,
    rr_topup: u64,
    arena_sets: u64,
}

impl Envelope {
    fn parse(payload: &str) -> Result<Envelope, String> {
        const HEAD: &str = "{\"result\":";
        let cut = payload
            .find(",\"server\":")
            .filter(|_| payload.starts_with(HEAD))
            .ok_or("not an OK envelope")?;
        let doc = Json::parse(payload)?;
        let server = |k: &str| {
            doc.num_at(&["server", k])
                .ok_or(format!("envelope has no server.{k}"))
        };
        Ok(Envelope {
            result: payload[HEAD.len()..cut].to_string(),
            elapsed_us: server("elapsed_us")?,
            selection_us: server("selection_us")?,
            topup_us: server("topup_us")?,
            scoring_us: server("scoring_us")?,
            rr_topup: server("rr_topup")? as u64,
            arena_sets: server("arena_sets")? as u64,
        })
    }
}

fn send(client: &mut Client, text: &str) -> (Status, String) {
    match client.request(text) {
        Ok(Response::Ok(p)) => (Status::Ok, p),
        Ok(Response::Err(p)) => (Status::Refused, p),
        Err(e) => (Status::Failed, e.to_string()),
    }
}

/// An in-process server with its load connections.
struct Rig {
    graph: Arc<Graph>,
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Rig {
    fn start(graph: Arc<Graph>, arena_budget_bytes: Option<usize>) -> Rig {
        let handle = Server::start(
            Arc::clone(&graph),
            ServerConfig {
                workers: WORKERS,
                arena_budget_bytes,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        let clients = (0..CONNS)
            .map(|_| Client::connect(handle.addr()).expect("connect to the in-process server"))
            .collect();
        Rig {
            graph,
            handle,
            clients,
        }
    }

    fn metrics(&mut self) -> Json {
        let (status, payload) = send(&mut self.clients[0], "metrics");
        assert_eq!(status, Status::Ok, "metrics dump failed: {payload}");
        Json::parse(&payload).expect("metrics dump is JSON")
    }

    /// Runs one phase: a generator thread per connection, timed on a
    /// shared wall clock, bracketed by metrics dumps.
    fn run_phase(
        &mut self,
        gen: impl Fn(&WallClock, usize, &mut Client) -> Vec<Record> + Sync,
    ) -> ServePhase {
        let before = self.metrics();
        let start = Instant::now();
        let clock = WallClock::start();
        let records = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let (gen, clock) = (&gen, &clock);
                    s.spawn(move || gen(clock, c, client))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        let after = self.metrics();
        ServePhase {
            start,
            records,
            envs: Vec::new(),
            before,
            after,
        }
        .with_envelopes()
    }

    fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
        self.handle.join();
    }
}

/// Per-layer work and time of the in-process replays, summed over the
/// workload's replay set.
#[derive(Debug, Default)]
struct Layers {
    rr_sample: Duration,
    rr_index: Duration,
    rr_sets: u64,
    rr_entries: u64,
    celf: Duration,
    plan_slice_us: Vec<f64>,
    prima: Duration,
    prima_total: u64,
    prima_final: u64,
    welfare: Duration,
    welfare_sims: u64,
}

struct Bench {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    origin: Instant,
    trace: Trace,
    checks: Vec<(String, bool)>,
    metrics: Vec<(Metric, usize)>,
    attempted: usize,
    failed: usize,
    setup: Vec<Duration>,
    graph_build: Vec<Duration>,
    arcs: u64,
    layers: Layers,
}

impl Bench {
    fn new(args: &Args) -> Bench {
        Bench {
            workload: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.trace,
            origin: Instant::now(),
            trace: Trace::default(),
            checks: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            setup: Vec::new(),
            graph_build: Vec::new(),
            arcs: 0,
            layers: Layers::default(),
        }
    }

    fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl std::fmt::Display) {
        let name = name.into();
        println!(
            "check {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        );
        self.checks.push((name, ok));
    }

    /// Records a metric; printed (with its sample count) when the run
    /// ends. `setup_s` and `graph.build_s` are filled in then, once
    /// every set-up has run.
    fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.push((
            Metric {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
            },
            samples,
        ));
    }

    /// Records a span from an `Instant` interval.
    fn span(&mut self, name: &'static str, req: u64, t0: Instant, t1: Instant) -> usize {
        let (s, e) = (t0 - self.origin, t1 - self.origin);
        self.trace.span(name, None, req, s, e)
    }

    /// The measured phases: one of `seconds` untraced, or an untraced
    /// and a traced half.
    fn horizons(&self) -> Vec<(bool, Duration)> {
        if self.traced {
            let half = Duration::from_secs_f64(self.seconds / 2.0);
            vec![(false, half), (true, half)]
        } else {
            vec![(false, Duration::from_secs_f64(self.seconds))]
        }
    }

    fn build_graph(&mut self) -> Arc<Graph> {
        let t0 = Instant::now();
        let g = Arc::new(named_network(NETWORK, SCALE, GRAPH_SEED));
        let t1 = Instant::now();
        self.graph_build.push(t1 - t0);
        self.arcs = g.num_edges() as u64;
        self.span("graph.build", 0, t0, t1);
        g
    }

    /// Times one set-up; `setup_s` is the median of [`SETUP_REPEATS`].
    fn timed_setup<T>(&mut self, setup: impl FnOnce(&mut Bench) -> T) -> T {
        let t0 = Instant::now();
        let v = setup(self);
        let t1 = Instant::now();
        self.setup.push(t1 - t0);
        self.span("setup", 0, t0, t1);
        v
    }

    /// The remaining set-ups of the `setup_s` median, each torn down at
    /// once. They run after the measured phase, and after peak memory
    /// was read, so that `peak_rss_mb` holds one set-up's memory.
    fn more_setups<T>(&mut self, setup: impl Fn(&mut Bench) -> T, teardown: impl Fn(T)) {
        while self.setup.len() < SETUP_REPEATS {
            let v = self.timed_setup(&setup);
            teardown(v);
        }
    }

    // -----------------------------------------------------------------
    // serve-repeat
    // -----------------------------------------------------------------

    fn serve_repeat(&mut self) {
        // Twelve (arena seed, budgets) specs, each asked unscored and
        // scored: key = 2 · spec + scored. The hot keys are the same on
        // every run; the workload seed drives the arrivals and the mix.
        let keys: Vec<Spec> = (0..REPEAT_ARENAS)
            .flat_map(|a| {
                let seed = derive_seed(REPEAT_ARENA_SEED, a as u64);
                REPEAT_BUDGETS.iter().flat_map(move |&budgets| {
                    [0, SERVE_SIMS].map(|sims| Spec {
                        solver: "warm-grd",
                        seed,
                        budgets,
                        sims,
                        config: 1,
                    })
                })
            })
            .collect();
        let setup = |b: &mut Bench| {
            let mut rig = Rig::start(b.build_graph(), None);
            // Every key, scored ones included, is solved once.
            let primed: Vec<(Status, String)> = keys
                .iter()
                .map(|k| send(&mut rig.clients[0], &k.text()))
                .collect();
            (rig, primed)
        };
        let (mut rig, primed) = self.timed_setup(setup);
        let primed_ok = primed.iter().all(|(s, _)| *s == Status::Ok);
        self.check("prime.all-ok", primed_ok, format!("{} keys", keys.len()));

        let mut phases = Vec::new();
        for (p, (_, horizon)) in self.horizons().into_iter().enumerate() {
            // Connection 0 carries the scored class and connection 1 the
            // unscored one, at rates 1:3, so one request in four is
            // scored and a scored request never holds an unscored one
            // up behind it on its connection. Each connection walks the
            // twelve specs in seeded shuffled rounds: the draw is
            // uniform and every spec is asked about equally often.
            let plans: Vec<(Vec<Duration>, Vec<usize>)> = (0..CONNS)
                .map(|c| {
                    let stream = (p * CONNS + c) as u64;
                    let scored = c == 0;
                    let share = if scored { 0.25 } else { 0.75 };
                    let due = poisson_schedule(
                        split_seed(self.seed, 0x5C4ED + stream),
                        REPEAT_RATE_RPS * share,
                        horizon,
                    );
                    let mut rng = UicRng::new(split_seed(self.seed, 0x313C7 + stream));
                    let mut deck = Vec::new();
                    let mix = (0..due.len())
                        .map(|_| {
                            if deck.is_empty() {
                                deck = shuffled(keys.len() / 2, &mut rng);
                            }
                            2 * deck.pop().expect("refilled") + usize::from(scored)
                        })
                        .collect();
                    (due, mix)
                })
                .collect();
            let texts: Vec<Vec<String>> = plans
                .iter()
                .map(|(_, mix)| mix.iter().map(|&k| keys[k].text()).collect())
                .collect();
            let phase = rig.run_phase(|clock, c, client| {
                load::open_loop(clock, c, &plans[c].0, |j| send(client, &texts[c][j]))
            });
            let key_of: Vec<usize> = phase
                .records
                .iter()
                .map(|r| plans[r.conn].1[r.seq])
                .collect();
            self.serve_phase_checks(p, &phase);
            let topup: u64 = phase.envs.iter().flatten().map(|e| e.rr_topup).sum();
            let dump_topup = counter_delta(&phase.before, &phase.after, "rr_topup_total");
            self.check(
                format!("phase{p}.rr-topup-zero"),
                topup == 0 && dump_topup == 0,
                format!("envelopes {topup}, metrics dump {dump_topup}"),
            );
            // Every answer to one key must be the same bytes.
            let mut first: Vec<Option<String>> = vec![None; keys.len()];
            let mut mismatched = 0;
            for (e, &k) in phase.envs.iter().zip(&key_of) {
                if let Some(e) = e {
                    match &first[k] {
                        None => first[k] = Some(e.result.clone()),
                        Some(f) if *f != e.result => mismatched += 1,
                        Some(_) => {}
                    }
                }
            }
            self.check(
                format!("phase{p}.repeat-identical"),
                mismatched == 0,
                format!("{mismatched} answers differ from their key's first answer"),
            );
            phases.push((phase, key_of, first));
        }
        let peak = peak_rss_mb();

        // Offline references: one scored key per arena, together
        // covering every budget pair; answered in the last phase (or, if
        // a key was never drawn there, at priming).
        let (last, key_of, first) = phases.last().expect("at least one phase");
        for a in 0..REPEAT_ARENAS {
            let key = 2 * (a * REPEAT_BUDGETS.len() + a % REPEAT_BUDGETS.len()) + 1;
            let served = first[key]
                .clone()
                .or_else(|| Envelope::parse(&primed[key].1).ok().map(|e| e.result));
            let Some(served) = served else {
                self.check(format!("served.key{key}"), false, "no OK answer");
                continue;
            };
            self.offline_reference(&rig.graph, &keys[key], &served, a as u64 + 1);
            if self.traced {
                // Replay the arena's RR stream up to its resident size.
                let resident = last
                    .envs
                    .iter()
                    .zip(key_of)
                    .filter(|(_, &k)| keys[k].seed == keys[key].seed)
                    .filter_map(|(e, _)| e.as_ref().map(|e| e.arena_sets))
                    .max()
                    .unwrap_or(0);
                let sets = self.replay_ris(&rig.graph, &keys[key], resident as usize, a as u64 + 1);
                self.replay_prima(&rig.graph, &keys[key], a as u64 + 1);
                self.check(
                    format!("rrset.replay-matches-arena.key{key}"),
                    sets == resident,
                    format!("replayed {sets} sets, arena holds {resident}"),
                );
            }
        }
        let phases: Vec<ServePhase> = phases.into_iter().map(|(p, _, _)| p).collect();
        self.serve_report(&mut rig, &phases, peak, |p| {
            p.envs.iter().flatten().map(|e| e.rr_topup).sum()
        });
        rig.stop();
        self.more_setups(setup, |(rig, _)| rig.stop());
    }

    // -----------------------------------------------------------------
    // serve-cold
    // -----------------------------------------------------------------

    fn serve_cold(&mut self) {
        let spec = |seed: u64| Spec {
            solver: "warm-grd",
            seed,
            budgets: COLD_BUDGETS,
            sims: SERVE_SIMS,
            config: 1,
        };
        let warmup = spec(derive_seed(self.seed, 0xC01D));
        let setup = |b: &mut Bench| {
            let mut rig = Rig::start(b.build_graph(), Some(COLD_ARENA_BUDGET));
            let (status, payload) = send(&mut rig.clients[0], &warmup.text());
            assert_eq!(status, Status::Ok, "warm-up request failed: {payload}");
            rig
        };
        let mut rig = self.timed_setup(setup);
        // Request j of connection c in phase p: a never-seen arena seed.
        let seed = self.seed;
        let seed_of = move |p: usize, c: usize, j: usize| {
            derive_seed(
                split_seed(seed, 0xC01D_0000 + (p * CONNS + c) as u64),
                j as u64,
            )
        };
        let mut phases = Vec::new();
        for (p, (_, horizon)) in self.horizons().into_iter().enumerate() {
            let phase = rig.run_phase(|clock, c, client| {
                load::closed_loop(clock, c, horizon, COLD_MIN_PER_CONN, 1, |j| {
                    send(client, &spec(seed_of(p, c, j)).text())
                })
            });
            self.serve_phase_checks(p, &phase);
            let fresh = phase.envs.iter().flatten().all(|e| e.rr_topup > 0);
            self.check(
                format!("phase{p}.cold-topup"),
                fresh,
                "every never-seen seed samples its own arena",
            );
            phases.push(phase);
        }
        let peak = peak_rss_mb();

        // The replay set: the first request of each connection in the
        // last phase.
        let p = phases.len() - 1;
        let last = &phases[p];
        let mut replay_sets = 0u64;
        for c in 0..CONNS {
            let i = last
                .records
                .iter()
                .position(|r| r.conn == c && r.seq == 0)
                .expect("every connection made a request");
            let Some(env) = last.envs[i].clone() else {
                self.check(format!("served.conn{c}"), false, "no OK answer");
                continue;
            };
            let s = spec(seed_of(p, c, 0));
            self.offline_reference(&rig.graph, &s, &env.result, c as u64 + 1);
            if self.traced {
                let sets = self.replay_ris(&rig.graph, &s, env.arena_sets as usize, c as u64 + 1);
                self.replay_prima(&rig.graph, &s, c as u64 + 1);
                replay_sets += env.rr_topup;
                self.check(
                    format!("rrset.replay-matches-topup.conn{c}"),
                    sets == env.rr_topup,
                    format!("replayed {sets} sets, request topped up {}", env.rr_topup),
                );
            }
        }
        self.serve_report(&mut rig, &phases, peak, |_| replay_sets);
        rig.stop();
        self.more_setups(setup, Rig::stop);
    }

    // -----------------------------------------------------------------
    // offline-solve
    // -----------------------------------------------------------------

    fn offline_solve(&mut self) {
        let spec = |seed: u64, config: u8| Spec {
            solver: "bundle-grd",
            seed,
            budgets: OFFLINE_BUDGETS,
            sims: OFFLINE_SIMS,
            config,
        };
        let warmup = spec(derive_seed(self.seed, 0x0FF), 1);
        let setup = |b: &mut Bench| {
            let g = b.build_graph();
            let (solver, inst) = warmup.solver_and_instance(&g);
            std::hint::black_box(solver.solve(&inst, &warmup.ctx()));
            g
        };
        let g = self.timed_setup(setup);
        // Solve j of phase p: the paper's Configs 1–4 in turn.
        let seed = self.seed;
        let spec_of = move |p: usize, j: usize| {
            spec(
                derive_seed(split_seed(seed, 0x0FF_0000 + p as u64), j as u64),
                (j % 4) as u8 + 1,
            )
        };
        let mut untraced_p50 = f64::NAN;
        let mut last = None;
        for (p, (traced, horizon)) in self.horizons().into_iter().enumerate() {
            let mut reports = Vec::new();
            let start = Instant::now();
            let clock = WallClock::start();
            let records = load::closed_loop(&clock, 0, horizon, 4, 4, |j| {
                let s = spec_of(p, j);
                let (solver, inst) = s.solver_and_instance(&g);
                let report = solver.solve(&inst, &s.ctx());
                let json = report_json(&report);
                reports.push(report);
                (Status::Ok, json)
            });
            let summary = self.account(&records);
            if !traced {
                untraced_p50 = summary.latency_p(50.0);
            }
            last = Some((traced, start, records, reports, summary));
        }
        let peak = peak_rss_mb();
        let (traced, start, records, reports, summary) = last.expect("at least one phase");
        if !traced {
            self.e2e_metrics(&summary, peak);
        }
        // Decomposition: PRIMA then estimate_stats must reproduce the
        // registry report bit for bit (the first cycle when traced, the
        // first solve otherwise).
        let replayed = if traced { 4 } else { 1 };
        let mut solve_time = Duration::ZERO;
        let (prima0, welfare0) = (self.layers.prima, self.layers.welfare);
        for (j, report) in reports.iter().enumerate().take(replayed) {
            let s = spec_of(self.horizons().len() - 1, j);
            solve_time += records[j].rtt();
            self.decompose(&g, &s, report, j as u64 + 1);
            if traced {
                let (t0, t1) = (start + records[j].send, start + records[j].done);
                self.span("request", j as u64 + 1, t0, t1);
                self.replay_ris(&g, &s, report.rr_sets_final, j as u64 + 1);
            }
        }
        if traced {
            let layer_time = (self.layers.prima - prima0) + (self.layers.welfare - welfare0);
            let gap = 1.0 - layer_time.as_secs_f64() / solve_time.as_secs_f64();
            let overhead = summary.latency_p(50.0) / untraced_p50 - 1.0;
            let first = spec_of(self.horizons().len() - 1, 0);
            self.offline_serving_layers(&g, &first, &reports[0], &summary, gap, overhead);
        }
        drop(g);
        self.more_setups(setup, drop);
    }

    /// The serving layers on offline-solve's inputs: one solve of the
    /// first spec through an in-process server, and ping round trips.
    fn offline_serving_layers(
        &mut self,
        g: &Arc<Graph>,
        first: &Spec,
        report: &SolveReport,
        summary: &Summary,
        gap: f64,
        overhead: f64,
    ) {
        let mut rig = Rig::start(Arc::clone(g), None);
        let before = rig.metrics();
        let t0 = Instant::now();
        let (status, payload) = send(&mut rig.clients[0], &first.text());
        let t1 = Instant::now();
        let after = rig.metrics();
        let served = ServePhase {
            start: t0,
            records: vec![Record {
                conn: 0,
                seq: 0,
                due: Duration::ZERO,
                send: Duration::ZERO,
                done: t1 - t0,
                status,
                payload,
            }],
            envs: Vec::new(),
            before,
            after,
        }
        .with_envelopes();
        let equal = served.envs[0]
            .as_ref()
            .is_some_and(|e| e.result == report_json(report));
        self.check("served-equals-registry", equal, first.text());
        let ping = self.ping(&mut rig);
        let shard = self.shard_stats(&served, 0);
        rig.stop();
        self.layer_metrics(&served, summary, &shard, &ping, gap, overhead);
    }
    /// Solves `spec` offline and checks the served `result` against it
    /// byte for byte. Traced runs split the solve into the registry run
    /// and a separately timed `estimate_stats`.
    fn offline_reference(&mut self, g: &Graph, spec: &Spec, served: &str, req: u64) {
        let (solver, inst) = spec.solver_and_instance(g);
        let ctx = spec.ctx();
        let report = if self.traced {
            let mut report = solver.run(&inst, &ctx);
            score_report(&inst, &ctx.with_sims(0), &mut report);
            if spec.sims > 0 {
                report.welfare = Some(self.estimate(&inst, &ctx, &report.allocation, req));
            }
            report
        } else {
            solver.solve(&inst, &ctx)
        };
        let offline = report_json(&report);
        self.check(
            format!("served-equals-offline.{}", spec.text().replace(' ', "_")),
            offline == served,
            if offline == served {
                "byte-identical".to_string()
            } else {
                format!("served {served} vs offline {offline}")
            },
        );
    }

    /// `WelfareEstimator::estimate_stats` exactly as `score_report`
    /// configures it, timed as the welfare layer.
    fn estimate(
        &mut self,
        inst: &WelMaxInstance,
        ctx: &SolveCtx,
        allocation: &Allocation,
        req: u64,
    ) -> uic_util::OnlineStats {
        let est = WelfareEstimator::new(inst.graph(), inst.model(), ctx.sims, ctx.welfare_seed)
            .with_objective(inst.objective().clone());
        let t0 = Instant::now();
        let stats = est.estimate_stats(allocation);
        let t1 = Instant::now();
        self.span("welfare.estimate", req, t0, t1);
        self.layers.welfare += t1 - t0;
        self.layers.welfare_sims += u64::from(ctx.sims);
        stats
    }

    /// Counts a phase's requests into the result line's totals and
    /// summarizes them.
    fn account(&mut self, records: &[Record]) -> Summary {
        let s = Summary::of(records);
        self.attempted += s.attempted;
        self.failed += s.refused + s.failed;
        s
    }

    fn serve_phase_checks(&mut self, p: usize, phase: &ServePhase) {
        let s = self.account(&phase.records);
        let unreadable = phase
            .records
            .iter()
            .zip(&phase.envs)
            .filter(|(r, e)| r.status == Status::Ok && e.is_none())
            .count();
        self.check(
            format!("phase{p}.envelopes"),
            unreadable == 0,
            format!(
                "{} requests, {} OK, {unreadable} unreadable envelopes",
                s.attempted, s.ok
            ),
        );
    }

    fn e2e_metrics(&mut self, s: &Summary, peak_mb: f64) {
        self.metric("setup_s", f64::NAN, "s", SETUP_REPEATS);
        self.metric("latency_p50_ms", s.latency_p(50.0), "ms", s.attempted);
        self.metric("latency_p90_ms", s.latency_p(90.0), "ms", s.attempted);
        self.metric("throughput_rps", s.throughput_rps, "1/s", s.ok);
        self.metric("peak_rss_mb", peak_mb, "MB", 1);
        let tail = stats::highest_supported(s.attempted);
        println!(
            "info: {} attempted, {} ok, {} refused, {} failed, error_frac {}; \
             latency p99 {} ms ({} samples beyond); highest percentile with >= {} beyond: {}; \
             generator late p99 {} ms",
            s.attempted,
            s.ok,
            s.refused,
            s.failed,
            s.error_frac(),
            s.latency_p(99.0),
            stats::beyond(99.0, s.attempted),
            stats::MIN_BEYOND,
            tail.map_or("none".to_string(), |p| format!("p{p}")),
            stats::percentile_sorted(&s.gen_late_ms, 99.0),
        );
    }

    /// Traced serve reporting: spans for the traced phase, the RTT
    /// reconciliation, ping, shard state and every per-layer metric.
    fn serve_report(
        &mut self,
        rig: &mut Rig,
        phases: &[ServePhase],
        peak_mb: f64,
        topup_sets: impl Fn(&ServePhase) -> u64,
    ) {
        if !self.traced {
            self.e2e_metrics(&Summary::of(&phases[0].records), peak_mb);
            return;
        }
        let (untraced, traced) = (&phases[0], &phases[1]);
        let (sa, sb) = (Summary::of(&untraced.records), Summary::of(&traced.records));
        let gap = self.serve_spans(traced);
        let ping = self.ping(rig);
        let shard = self.shard_stats(traced, topup_sets(traced));
        let overhead = sb.latency_p(50.0) / sa.latency_p(50.0) - 1.0;
        self.layer_metrics(traced, &sb, &shard, &ping, gap, overhead);
    }

    /// Request spans of a served phase, with the envelope's phase split
    /// as children; returns the share of due-time latency no layer
    /// accounts for (time waiting for the connection, and clock slack).
    fn serve_spans(&mut self, phase: &ServePhase) -> f64 {
        let base = phase.start - self.origin;
        for (i, (r, e)) in phase.records.iter().zip(&phase.envs).enumerate() {
            let req = 1000 + i as u64;
            let root = self
                .trace
                .span("request", None, req, base + r.due, base + r.done);
            self.trace
                .span("client.queue", Some(root), req, base + r.due, base + r.send);
            let wire = self
                .trace
                .span("wire", Some(root), req, base + r.send, base + r.done);
            if let Some(e) = e {
                // The envelope gives durations only; centre the server's
                // time inside the round trip.
                let elapsed = us(e.elapsed_us).min(r.rtt());
                let mut t = base + r.send + (r.rtt() - elapsed) / 2;
                let engine = self.trace.span("engine", Some(wire), req, t, t + elapsed);
                for (name, d) in [
                    ("shard.topup", e.topup_us),
                    ("select", e.selection_us),
                    ("welfare.scoring", e.scoring_us),
                ] {
                    self.trace.span(name, Some(engine), req, t, t + us(d));
                    t += us(d);
                }
            }
        }
        let own = self.trace.self_times();
        let unaccounted = own.get("request").copied().unwrap_or_default()
            + own.get("client.queue").copied().unwrap_or_default();
        unaccounted.as_secs_f64() / self.trace.total("request").as_secs_f64()
    }

    fn ping(&mut self, rig: &mut Rig) -> Vec<f64> {
        (0..PINGS)
            .map(|i| {
                let t0 = Instant::now();
                let (status, payload) = send(&mut rig.clients[0], "ping");
                let t1 = Instant::now();
                assert_eq!(status, Status::Ok, "ping failed: {payload}");
                self.span("wire.ping", i as u64, t0, t1);
                (t1 - t0).as_secs_f64() * 1e6
            })
            .collect()
    }

    fn shard_stats(&self, phase: &ServePhase, topup_sets: u64) -> ShardStats {
        let delta = |k: &str| counter_delta(&phase.before, &phase.after, k);
        let hits = delta("plan_hits");
        let oks = || phase.envs.iter().flatten();
        ShardStats {
            topup_us: oks().map(|e| e.topup_us).sum(),
            elapsed_us: oks().map(|e| e.elapsed_us).sum(),
            topup_sets,
            plan_hits: hits,
            plan_lookups: hits + delta("plan_misses") + delta("plan_resumes"),
            evictions: delta("evictions_total"),
            arena_mb: phase.after.num_at(&["arena_bytes"]).unwrap_or(0.0) / (1u64 << 20) as f64,
        }
    }

    /// Every per-layer metric, in the order BENCHMARK.json lists them.
    fn layer_metrics(
        &mut self,
        served: &ServePhase,
        load: &Summary,
        shard: &ShardStats,
        ping_us: &[f64],
        gap_frac: f64,
        overhead_frac: f64,
    ) {
        let p = |xs: &[f64], q: f64| {
            if xs.is_empty() {
                0.0
            } else {
                stats::percentile(xs, q)
            }
        };
        let oks: Vec<(&Record, &Envelope)> = served
            .records
            .iter()
            .zip(&served.envs)
            .filter_map(|(r, e)| e.as_ref().map(|e| (r, e)))
            .collect();
        let wire: Vec<f64> = oks
            .iter()
            .map(|(r, e)| r.rtt().as_secs_f64() * 1e6 - e.elapsed_us)
            .collect();
        let selection: Vec<f64> = oks.iter().map(|(_, e)| e.selection_us).collect();
        let scoring: Vec<f64> = oks.iter().map(|(_, e)| e.scoring_us).collect();
        let l = std::mem::take(&mut self.layers);
        // One plan-slice time per replayed spec.
        let replays = l.plan_slice_us.len();
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        self.metric("graph.build_s", f64::NAN, "s", SETUP_REPEATS);
        self.metric("graph.arcs", self.arcs as f64, "count", 1);
        self.metric("rrset.sample_ms", ms(l.rr_sample), "ms", replays);
        self.metric("rrset.index_ms", ms(l.rr_index), "ms", replays);
        self.metric("rrset.sets", l.rr_sets as f64, "count", 1);
        self.metric("rrset.entries", l.rr_entries as f64, "count", 1);
        self.metric("select.celf_ms", ms(l.celf), "ms", replays);
        self.metric(
            "select.plan_slice_us",
            mean(&l.plan_slice_us),
            "us",
            replays * SLICE_REPS,
        );
        self.metric("prima.ms", ms(l.prima), "ms", 1);
        self.metric("prima.rr_sets_total", l.prima_total as f64, "count", 1);
        self.metric("prima.rr_sets_final", l.prima_final as f64, "count", 1);
        self.metric("welfare.ms", ms(l.welfare), "ms", 1);
        self.metric("welfare.sims", l.welfare_sims as f64, "count", 1);
        let per_sim = if l.welfare_sims == 0 {
            0.0
        } else {
            l.welfare.as_secs_f64() * 1e6 / l.welfare_sims as f64
        };
        self.metric("welfare.us_per_sim", per_sim, "us", l.welfare_sims as usize);
        let topup_frac = if shard.elapsed_us == 0.0 {
            0.0
        } else {
            shard.topup_us / shard.elapsed_us
        };
        self.metric("shard.topup_frac", topup_frac, "ratio", selection.len());
        self.metric("shard.topup_sets", shard.topup_sets as f64, "count", 1);
        let ratio = if shard.plan_lookups == 0 {
            0.0
        } else {
            shard.plan_hits as f64 / shard.plan_lookups as f64
        };
        self.metric(
            "shard.plan_hit_ratio",
            ratio,
            "ratio",
            shard.plan_lookups as usize,
        );
        self.metric("shard.plan_lookups", shard.plan_lookups as f64, "count", 1);
        self.metric("shard.evictions", shard.evictions as f64, "count", 1);
        self.metric("shard.arena_mb", shard.arena_mb, "MB", 1);
        self.metric(
            "engine.selection_mean_us",
            mean(&selection),
            "us",
            selection.len(),
        );
        self.metric(
            "engine.selection_p99_us",
            p(&selection, 99.0),
            "us",
            selection.len(),
        );
        self.metric(
            "engine.scoring_mean_us",
            mean(&scoring),
            "us",
            scoring.len(),
        );
        self.metric(
            "engine.scoring_p99_us",
            p(&scoring, 99.0),
            "us",
            scoring.len(),
        );
        self.metric("wire.overhead_p50_us", p(&wire, 50.0), "us", wire.len());
        self.metric("wire.overhead_p99_us", p(&wire, 99.0), "us", wire.len());
        self.metric("wire.ping_p50_us", p(ping_us, 50.0), "us", ping_us.len());
        self.metric(
            "load.latency_p99_ms",
            load.latency_p(99.0),
            "ms",
            load.attempted,
        );
        self.metric(
            "load.gen_late_p99_ms",
            p(&load.gen_late_ms, 99.0),
            "ms",
            load.gen_late_ms.len(),
        );
        self.metric(
            "load.error_frac",
            load.error_frac(),
            "ratio",
            load.attempted,
        );
        self.metric("load.requests", load.attempted as f64, "count", 1);
        self.metric("reconcile.gap_frac", gap_frac, "ratio", 1);
        self.metric("trace.overhead_frac", overhead_frac, "ratio", 1);
    }

    /// Replays one spec's RR stream and selection through the public
    /// functions: `extend_to`, `ensure_index`, `node_selection`, then a
    /// `SelectionPlan` and its `slice`. Returns the sets sampled.
    fn replay_ris(&mut self, g: &Graph, spec: &Spec, target: usize, req: u64) -> u64 {
        let mut coll = RrCollection::new(g, DiffusionModel::IC, spec.seed);
        let t0 = Instant::now();
        coll.extend_to(g, target);
        let t1 = Instant::now();
        coll.ensure_index();
        let t2 = Instant::now();
        self.span("rrset.sample", req, t0, t1);
        self.span("rrset.index", req, t1, t2);
        self.layers.rr_sample += t1 - t0;
        self.layers.rr_index += t2 - t1;
        self.layers.rr_sets += coll.len() as u64;
        self.layers.rr_entries += coll.total_entries() as u64;
        let k = spec.max_budget();
        let t0 = Instant::now();
        std::hint::black_box(node_selection(&mut coll, k));
        let t1 = Instant::now();
        self.span("select.celf", req, t0, t1);
        self.layers.celf += t1 - t0;
        let plan = SelectionPlan::compute(&coll, k, coll.len());
        self.span("select.plan", req, t1, Instant::now());
        // One timing over many calls: a single slice is near the
        // clock's resolution.
        let t0 = Instant::now();
        for _ in 0..SLICE_REPS {
            std::hint::black_box(plan.slice(std::hint::black_box(k)));
        }
        let per_call_us = t0.elapsed().as_secs_f64() * 1e6 / SLICE_REPS as f64;
        self.layers.plan_slice_us.push(per_call_us);
        coll.len() as u64
    }

    /// Cold PRIMA on one spec's inputs.
    fn replay_prima(&mut self, g: &Graph, spec: &Spec, req: u64) -> uic_im::PrimaResult {
        let mut sorted = spec.budgets.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let t0 = Instant::now();
        let r = prima(g, &sorted, EPS, ELL, DiffusionModel::IC, spec.seed);
        let t1 = Instant::now();
        self.span("prima", req, t0, t1);
        self.layers.prima += t1 - t0;
        self.layers.prima_total += r.rr_sets_total;
        self.layers.prima_final += r.rr_sets_final as u64;
        r
    }

    /// Checks that PRIMA then `estimate_stats` reproduce a registry
    /// `bundle-grd` report: allocation, welfare bits and RR counts.
    fn decompose(&mut self, g: &Graph, spec: &Spec, report: &SolveReport, req: u64) {
        let (_, inst) = spec.solver_and_instance(g);
        let r = self.replay_prima(g, spec, req);
        let mut allocation = Allocation::new();
        for (i, &b) in spec.budgets.iter().enumerate() {
            for &v in r.seeds_for_budget(b) {
                allocation.assign(v, i as u32);
            }
        }
        let stats = self.estimate(&inst, &spec.ctx(), &allocation, req);
        let name = format!("decomposition.{}", spec.text().replace(' ', "_"));
        let same_welfare = report.welfare.is_some_and(|w| {
            w.count() == stats.count()
                && w.mean().to_bits() == stats.mean().to_bits()
                && w.ci95_halfwidth().to_bits() == stats.ci95_halfwidth().to_bits()
        });
        let same_counts =
            report.rr_sets_total == r.rr_sets_total && report.rr_sets_final == r.rr_sets_final;
        self.check(
            name,
            allocation == report.allocation && same_welfare && same_counts,
            format!(
                "allocation {}, welfare bits {}, rr sets {}/{} vs {}/{}",
                allocation == report.allocation,
                same_welfare,
                r.rr_sets_final,
                r.rr_sets_total,
                report.rr_sets_final,
                report.rr_sets_total
            ),
        );
    }

    fn finish(mut self) {
        let correct = self.checks.iter().all(|(_, ok)| *ok);
        if self.traced {
            let path = PathBuf::from("perfbench/out").join(format!(
                "trace-{}-seed{}.json",
                self.workload.name(),
                self.seed
            ));
            match self.trace.write(&path) {
                Ok(()) => println!(
                    "trace: {} spans -> {}",
                    self.trace.spans().len(),
                    path.display()
                ),
                Err(e) => self.check("trace.write", false, e),
            }
        }
        let correct = correct && self.checks.iter().all(|(_, ok)| *ok);
        let secs = |ds: &[Duration]| {
            let xs: Vec<f64> = ds.iter().map(Duration::as_secs_f64).collect();
            stats::median(&xs)
        };
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for (mut m, samples) in std::mem::take(&mut self.metrics) {
            match m.name.as_str() {
                "setup_s" => m.value = secs(&self.setup),
                "graph.build_s" => m.value = secs(&self.graph_build),
                _ => {}
            }
            println!("{} = {} {} (n={samples})", m.name, m.value, m.unit);
            metrics.push(m);
        }
        let out = Outcome {
            correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        };
        println!("{}", out.to_json());
    }
}

fn envelopes(records: &[Record]) -> Vec<Option<Envelope>> {
    records
        .iter()
        .map(|r| match r.status {
            Status::Ok => Envelope::parse(&r.payload).ok(),
            _ => None,
        })
        .collect()
}

fn counter_delta(before: &Json, after: &Json, key: &str) -> u64 {
    let get = |d: &Json| d.num_at(&[key]).unwrap_or(0.0) as u64;
    get(after).saturating_sub(get(before))
}

/// One measured serve phase: the generator's records, their envelopes,
/// and the metrics dump around it.
struct ServePhase {
    start: Instant,
    records: Vec<Record>,
    envs: Vec<Option<Envelope>>,
    before: Json,
    after: Json,
}

impl ServePhase {
    fn with_envelopes(mut self) -> ServePhase {
        self.envs = envelopes(&self.records);
        self
    }
}

/// What the shard layer published over one phase.
struct ShardStats {
    /// Σ envelope `topup_us` and Σ `elapsed_us` over OK answers.
    topup_us: f64,
    elapsed_us: f64,
    topup_sets: u64,
    plan_hits: u64,
    plan_lookups: u64,
    evictions: u64,
    arena_mb: f64,
}

/// `0..n` in a seeded random order (Fisher–Yates).
fn shuffled(n: usize, rng: &mut UicRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.next_below(i as u32 + 1) as usize);
    }
    v
}

/// Microseconds from an envelope field.
fn us(x: f64) -> Duration {
    Duration::from_secs_f64(x.max(0.0) / 1e6)
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
