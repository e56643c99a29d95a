//! The traced run (`--trace 1`): the per-layer numbers.
//!
//! A third of the run repeats the workload untraced, a third repeats it
//! on the same inputs with a wall-clock span profiler and a registry
//! attached through the program's public seams, and the rest runs the
//! layer probes. Per-span self times come from the traced repetitions,
//! counts from the registry and result surfaces, and the difference
//! between the two thirds is the tracing overhead. End-to-end metrics
//! are never taken from here.

use crate::contract::Contract;
use crate::probes;
use crate::run::{check, repeat, Outcome, RunArgs};
use crate::stats::median;
use crate::workloads::{run_rep, Hooks, Rep, Workload};

/// Program spans whose self time the traced run reports.
pub const SPANS: [&str; 12] = [
    "sim.event",
    "sim.event_pop",
    "core.handle.message",
    "core.handle.tick",
    "core.handle.block_sent",
    "core.piece_pick",
    "core.choke_round",
    "net.poll",
    "net.read_pass",
    "net.write_pass",
    "wire.encode",
    "wire.decode",
];

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Measure the per-layer metrics of one workload.
pub fn measure(
    args: &RunArgs,
    contract: &Contract,
    jobs: usize,
    reference: &Rep,
) -> (Outcome, Vec<String>) {
    let (w, sizes, seed) = (args.workload, args.sizes(), args.seed);
    let third = args.seconds / 3.0;
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| values.push((name.to_owned(), v));

    // Untraced. The parallel sweep runs the serial one beside it on
    // every input, for the pool's efficiency.
    let mut serial_walls = Vec::new();
    let untraced = repeat(third, || {
        if w == Workload::Table1Parallel {
            serial_walls.push(run_rep(Workload::Table1Serial, sizes, seed, jobs, None).wall_s);
        }
        run_rep(w, sizes, seed, jobs, None)
    });
    let untraced_wall = median_of(&untraced, |r| r.wall_s);

    // Traced, on the same inputs.
    let hooks = Hooks::new(w != Workload::NetBulk);
    let traced = repeat(third, || run_rep(w, sizes, seed, jobs, Some(&hooks)));
    let traced_wall = median_of(&traced, |r| r.wall_s);
    let profile = hooks.profiler.snapshot();

    let threads = w.threads(jobs) as f64;
    let thread_seconds: f64 = traced.iter().map(|r| r.wall_s).sum::<f64>() * threads;
    let flat = profile.flat();
    let self_s = |name: &str| {
        flat.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, stat)| stat.self_us as f64 / 1e6)
    };
    for span in SPANS {
        put(
            &format!("trace.self_s.{span}"),
            self_s(span) / traced.len() as f64,
        );
        put(
            &format!("trace.share.{span}"),
            self_s(span) / thread_seconds,
        );
    }
    // The benchmark's own `bench.*` spans wrap the program's; what they
    // do not hand down to a program span is time no layer accounts for.
    let program: f64 = flat
        .iter()
        .filter(|(n, _)| !n.starts_with("bench."))
        .map(|(_, stat)| stat.self_us as f64 / 1e6)
        .sum();
    put("trace.coverage", program / thread_seconds);
    put(
        "trace.overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );

    // Counts per repetition, from spans, registry and result surfaces.
    let calls = |name: &str| {
        flat.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, stat)| stat.count as f64)
            / traced.len() as f64
    };
    put("piece.picks", calls("core.piece_pick"));
    put("choke.rounds", calls("core.choke_round"));
    for name in [
        "core.inputs",
        "core.actions",
        "sim.events",
        "sim.link_losses",
        "net.messages_in",
        "net.blocks_sent",
        "net.disconnects",
        "net.dial_retries",
        "net.ticks",
    ] {
        if traced.iter().any(|r| r.counts.contains_key(name)) {
            put(
                name,
                median_of(&traced, |r| r.counts.get(name).copied().unwrap_or(0.0)),
            );
        }
    }

    match w {
        Workload::Table1Serial | Workload::Table1Parallel => {
            put("torrents.build_spec_s", median_of(&untraced, |r| r.setup_s));
        }
        Workload::NetBulk => {
            let gib = |r: &Rep| r.payload_bytes as f64 / (1u64 << 30) as f64;
            put(
                "net.goodput_mib_s",
                median_of(&untraced, |r| gib(r) * 1024.0 / r.wall_s),
            );
            // CPU is read around the whole call, set-up included: the
            // content is generated and hashed there.
            put(
                "net.cpu_s_per_gib",
                median_of(&untraced, |r| r.cpu_s / gib(r).max(1e-9)),
            );
            put(
                "net.idle_share",
                median_of(&untraced, |r| {
                    1.0 - r.cpu_s / ((r.wall_s + r.setup_s) * threads)
                }),
            );
        }
        Workload::Crowd | Workload::CrowdObserved => {}
    }
    if w == Workload::Table1Parallel {
        let efficiency: Vec<f64> = serial_walls
            .iter()
            .zip(&untraced)
            .map(|(serial, parallel)| serial / (threads * parallel.wall_s))
            .collect();
        put("torrents.pool_efficiency", median(&efficiency));
    }

    for (name, v) in probes::run_all(args.smoke) {
        put(name, v);
    }

    let mut complaints = check(args, reference, &untraced);
    // Observers must not change what a swarm does.
    if w != Workload::NetBulk
        && traced
            .iter()
            .any(|rep| rep.output.behaviour != reference.output.behaviour)
    {
        complaints.push(format!(
            "traced repetition of {} behaved differently from the untraced reference",
            w.name()
        ));
    }
    // Contract order, so the printed table reads layer by layer.
    let order = |name: &str| contract.per_layer.iter().position(|m| m.name == name);
    values.sort_by_key(|(name, _)| order(name).unwrap_or(usize::MAX));
    let out = Outcome {
        attempted: untraced.iter().chain(&traced).map(|r| r.attempted).sum(),
        failed: untraced.iter().chain(&traced).map(|r| r.failed).sum(),
        metrics: values,
        profile_json: Some(profile.to_json()),
        first_output: untraced[0].output.clone(),
        ..Outcome::default()
    };
    (out, complaints)
}
