//! Deterministic load simulation: seeded open-loop arrivals on the virtual
//! clock, exercising the acceptance criteria of the serving layer —
//! continuous batching beats back-to-back half-batches, served answers
//! match batch evaluation bitwise, deadlines hold below the admission
//! threshold, sheds beat the deadlines they fail, and the whole scenario is
//! reproducible byte-for-byte across runs (and across `TCL_THREADS`, which
//! the CI stage pins by running this suite under 1 and 4 threads against
//! the same fingerprint constant).

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::{
    body_field, diagonal_net, drive, lane_factory, serve_cfg, solo_lane_output, RecordingBackend,
    ADAPTIVE,
};
use tcl_serve::sim::{infer_request, infer_request_keep_alive, pipelined, SimNet};
use tcl_serve::{Completion, ServeStats, Server, VirtualClock};
use tcl_snn::{Engine, Readout, SimConfig};
use tcl_tensor::{SeededRng, Tensor};

/// Eight 4-feature samples: six confident (dominant feature → early exit)
/// and two ambiguous ties (indices 0 and 5) that ride out their budget.
fn mixed_samples() -> Vec<Vec<f32>> {
    vec![
        vec![0.5, 0.5, 0.1, 0.1],
        vec![0.9, 0.1, 0.05, 0.05],
        vec![0.1, 0.85, 0.1, 0.05],
        vec![0.05, 0.1, 0.8, 0.1],
        vec![0.1, 0.05, 0.1, 0.95],
        vec![0.1, 0.45, 0.45, 0.1],
        vec![0.7, 0.2, 0.1, 0.1],
        vec![0.15, 0.1, 0.2, 0.75],
    ]
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, v) in row.iter().enumerate() {
        if *v > row[best] {
            best = i;
        }
    }
    best
}

/// The continuous-batching acceptance test: 2× lane-count requests offered
/// at t=0 must finish in fewer engine timesteps than two half-batches run
/// back-to-back, while every served answer stays bitwise equal to batch
/// evaluation of the same inputs.
#[test]
fn continuous_batching_beats_back_to_back_half_batches() {
    let samples = mixed_samples();
    let labels: Vec<usize> = samples.iter().map(|s| argmax(s)).collect();
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 4);
    cfg.steps_per_tick = 8;

    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let clients: Vec<_> = samples
        .iter()
        .map(|s| sim.request_at(0, infer_request(s, None)))
        .collect();

    let log: Rc<RefCell<Vec<Completion>>> = Rc::new(RefCell::new(Vec::new()));
    let factory = {
        let mut inner = lane_factory(&net, &cfg, Readout::SpikeCount);
        let log = Rc::clone(&log);
        Box::new(move || RecordingBackend::wrap(inner(), Rc::clone(&log)))
    };
    let mut server = Server::new(cfg.clone(), clock.clone(), Box::new(sim.clone()), factory)
        .expect("server builds");
    drive(&mut server, &clock, &sim, 100, 400);

    // Batch oracle: the same 8 samples through Engine::evaluate under the
    // same policy and readout, single checkpoint at the budget.
    let images = Tensor::from_vec([8, 4], samples.concat()).expect("images");
    let sim_cfg = SimConfig::new(vec![cfg.max_steps], 8, Readout::SpikeCount).expect("sim config");
    let reference = Engine::with_threads(1)
        .evaluate(&net, &images, &labels, &sim_cfg, ADAPTIVE)
        .expect("batch evaluation");

    // Requests arrive (and are admitted) in client order, so lane id ==
    // sample index; check each served answer against the batch oracle.
    assert_eq!(server.stats().completed, 8);
    assert_eq!(server.stats().shed, 0);
    assert_eq!(server.stats().deadline_miss, 0);
    let mut served_correct = 0;
    for (i, client) in clients.iter().enumerate() {
        assert_eq!(client.status(), Some(200), "client {i}");
        let body = client.body();
        let pred = body_field(&body, "pred") as usize;
        let steps = body_field(&body, "steps") as usize;
        assert_eq!(pred, reference.predictions[i], "client {i} prediction");
        assert_eq!(steps, reference.exit_steps[i], "client {i} exit step");
        if pred == labels[i] {
            served_correct += 1;
        }
    }
    let served_accuracy = served_correct as f32 / 8.0;
    assert_eq!(
        served_accuracy, reference.adaptive_accuracy,
        "serving must not change adaptive accuracy"
    );

    // Early-exit flags match, and the two ambiguous samples rode out the
    // full budget while the six confident ones exited early.
    let log = log.borrow();
    assert_eq!(log.len(), 8);
    for c in log.iter() {
        let i = c.lane as usize;
        assert_eq!(c.early, reference.exited[i], "lane {i} early flag");
        // Scores at retirement are bitwise the solo-run trajectory: a
        // lane's arithmetic is untouched by whoever shares the batch.
        let solo = solo_lane_output(
            &net,
            &samples[i],
            Readout::SpikeCount,
            ADAPTIVE,
            cfg.max_steps,
        );
        assert_eq!(c.scores, solo.scores, "lane {i} scores bitwise");
        assert_eq!(c.steps, solo.steps, "lane {i} solo steps");
    }
    assert!(
        !log[log.len() - 1].early,
        "an ambiguous sample retires last"
    );

    // The continuous-batching win: two half-batches back-to-back with
    // ExitPolicy::Off would cost 2 × max_steps engine timesteps; admitting
    // into freed lanes must beat that.
    let two_half_batches = 2 * cfg.max_steps as u64;
    assert!(
        server.engine_steps() < two_half_batches,
        "engine ran {} shared steps, expected fewer than {two_half_batches}",
        server.engine_steps()
    );
    // Lane-steps accounting: exactly the per-sample exit steps, no idle
    // simulation.
    let oracle_lane_steps: u64 = reference.exit_steps.iter().map(|&s| s as u64).sum();
    assert_eq!(server.lane_steps(), oracle_lane_steps);
}

/// One full open-loop scenario: seeded jittered arrivals plus a burst that
/// overruns the queue. Returns the per-client fingerprint
/// (`status@closed_at#completion_index`) and the final counters.
fn open_loop_scenario() -> (String, ServeStats) {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 2);
    cfg.queue_depth = 2;
    cfg.max_steps = 40;
    cfg.steps_per_tick = 4;

    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let mut rng = SeededRng::new(0xD1CE);
    let mut clients = Vec::new();
    let mut t = 0u64;
    for i in 0..16u64 {
        t += 100 + rng.below_u64(600);
        let mut sample = [0.1f32; 4];
        sample[rng.below(4)] = 0.7 + rng.uniform(0.0, 0.2);
        let deadline = if i % 4 == 0 { Some(2_500) } else { None };
        clients.push(sim.request_at(t, infer_request(&sample, deadline)));
    }
    // A synchronized burst mid-run: more offered work than lanes + queue.
    for k in 0..6usize {
        let mut sample = [0.1f32; 4];
        sample[k % 4] = 0.8;
        clients.push(sim.request_at(3_000, infer_request(&sample, Some(1_500))));
    }

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 2_000);

    // No-starvation under EDF: deadline-less requests rank last in the
    // queue but must still all be served — urgency reorders, it never
    // permanently displaces (the burst is finite, so the queue drains).
    for (i, client) in clients.iter().enumerate().take(16) {
        if !(i as u64).is_multiple_of(4) {
            assert_eq!(
                client.status(),
                Some(200),
                "deadline-less client {i} starved under EDF"
            );
        }
    }

    let fingerprint = clients
        .iter()
        .map(|c| {
            format!(
                "{}@{}#{}",
                c.status().unwrap_or(0),
                c.closed_at().unwrap_or(u64::MAX),
                c.completion_index().unwrap_or(u64::MAX),
            )
        })
        .collect::<Vec<_>>()
        .join(";");
    (fingerprint, server.stats().clone())
}

/// The run-to-run (and thread-count-to-thread-count) determinism lock: the
/// scenario's complete outcome — every status, close time, and the global
/// completion order — is pinned to a constant. CI runs this suite under
/// `TCL_THREADS=1` and `TCL_THREADS=4`; both must land on these bytes.
#[test]
fn open_loop_arrivals_are_bitwise_reproducible() {
    let (first, stats_first) = open_loop_scenario();
    let (second, stats_second) = open_loop_scenario();
    assert_eq!(first, second, "same scenario, same bytes");
    assert_eq!(stats_first, stats_second);
    // The scenario must exercise both the happy path and load shedding,
    // or the fingerprint proves less than it claims.
    assert!(stats_first.completed > 0, "no completions: {stats_first:?}");
    assert!(stats_first.shed > 0, "no sheds: {stats_first:?}");
    assert_eq!(
        first, PINNED_FINGERPRINT,
        "completion order diverged from the pinned constant"
    );
}

/// Below the admission threshold every deadline holds: spaced arrivals on
/// idle lanes, generous deadlines, zero misses, zero sheds.
#[test]
fn deadline_misses_are_exactly_zero_below_admission_threshold() {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 2);
    cfg.max_steps = 40;
    cfg.steps_per_tick = 4;

    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let samples = mixed_samples();
    let clients: Vec<_> = (0..12u64)
        .map(|i| {
            let arrival = i * 2_000;
            // Confident samples only (no budget-riders) so service time
            // stays far below the deadline.
            let sample = &samples[1 + (i as usize % 4)];
            (
                arrival,
                sim.request_at(arrival, infer_request(sample, Some(50_000))),
            )
        })
        .collect();

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 2_000);

    assert_eq!(server.stats().deadline_miss, 0, "{:?}", server.stats());
    assert_eq!(server.stats().shed, 0);
    assert_eq!(server.stats().completed, 12);
    for (arrival, client) in &clients {
        assert_eq!(client.status(), Some(200));
        let closed = client.closed_at().expect("closed");
        assert!(
            closed <= arrival + 50_000,
            "response at {closed} vs deadline {}",
            arrival + 50_000
        );
    }
}

/// Overload: one lane, a queue of one, six simultaneous requests with firm
/// deadlines. One is served; every shed answer (queue-full 429s and the
/// hopeless-queue sweep) must land *before* the deadline it failed.
#[test]
fn every_shed_request_is_answered_before_its_deadline() {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 1);
    cfg.queue_depth = 1;
    cfg.policy = tcl_snn::ExitPolicy::Off;
    cfg.max_steps = 20;
    cfg.steps_per_tick = 2;

    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let deadline_us = 3_000u64;
    let clients: Vec<_> = (0..6)
        .map(|_| sim.request_at(0, infer_request(&[0.9, 0.1, 0.1, 0.1], Some(deadline_us))))
        .collect();

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 200);

    let mut served = 0;
    let mut shed = 0;
    for (i, client) in clients.iter().enumerate() {
        let status = client
            .status()
            .unwrap_or_else(|| panic!("client {i} unanswered"));
        let closed = client.closed_at().expect("closed");
        match status {
            200 => {
                served += 1;
                assert!(closed <= deadline_us, "served at {closed}");
            }
            429 => {
                shed += 1;
                assert!(
                    closed < deadline_us,
                    "shed answer at {closed} arrived after the {deadline_us}µs deadline"
                );
                assert!(
                    client.response_text().contains("Retry-After:"),
                    "shed responses advertise Retry-After"
                );
            }
            other => panic!("client {i}: unexpected status {other}"),
        }
    }
    assert_eq!(served, 1, "exactly one lane's worth of work fits");
    assert_eq!(shed, 5);
    assert_eq!(server.stats().shed, 5);
    assert_eq!(server.stats().deadline_miss, 0);
}

/// The keep-alive acceptance criterion: N requests pipelined on ONE
/// connection produce bitwise-identical scores to the same N requests on
/// solo connections — connection reuse changes scheduling, never
/// arithmetic. Pipelined requests are also answered strictly in arrival
/// order on the shared connection.
#[test]
fn pipelined_keep_alive_matches_solo_connections_bitwise() {
    let samples = mixed_samples();
    // Four confident samples with distinct predictions 0..=3.
    let picks: Vec<&Vec<f32>> = vec![&samples[1], &samples[2], &samples[3], &samples[4]];
    let net = diagonal_net(4);
    let cfg = serve_cfg(4, 2);

    let run = |pipeline: bool| -> (Vec<Completion>, Vec<(u16, String)>, ServeStats) {
        let clock = VirtualClock::new();
        let sim = SimNet::new(&clock);
        let clients = if pipeline {
            // Three kept-alive requests plus a final `Connection: close`
            // on a single connection, all bytes in one chunk.
            let mut reqs: Vec<Vec<u8>> = picks
                .iter()
                .take(3)
                .map(|s| infer_request_keep_alive(s, None))
                .collect();
            reqs.push(infer_request(picks[3], None));
            vec![sim.request_at(0, pipelined(&reqs))]
        } else {
            picks
                .iter()
                .map(|s| sim.request_at(0, infer_request(s, None)))
                .collect()
        };
        let log: Rc<RefCell<Vec<Completion>>> = Rc::new(RefCell::new(Vec::new()));
        let factory = {
            let mut inner = lane_factory(&net, &cfg, Readout::SpikeCount);
            let log = Rc::clone(&log);
            Box::new(move || RecordingBackend::wrap(inner(), Rc::clone(&log)))
        };
        let mut server = Server::new(cfg.clone(), clock.clone(), Box::new(sim.clone()), factory)
            .expect("server builds");
        drive(&mut server, &clock, &sim, 100, 2_000);
        let responses = clients.iter().flat_map(|c| c.responses()).collect();
        let log = log.borrow().clone();
        (log, responses, server.stats().clone())
    };

    let (piped_log, piped_responses, piped_stats) = run(true);
    let (solo_log, solo_responses, solo_stats) = run(false);

    // All eight requests (4 + 4) answered 200, and the pipelined answers
    // arrive in request order: predictions 0, 1, 2, 3 on the one stream.
    assert_eq!(piped_responses.len(), 4);
    assert_eq!(solo_responses.len(), 4);
    for (i, (status, body)) in piped_responses.iter().enumerate() {
        assert_eq!(*status, 200, "pipelined request {i}");
        assert_eq!(
            body_field(body, "pred") as usize,
            i,
            "pipelined answers follow arrival order"
        );
    }
    assert_eq!(piped_stats.completed, 4);
    assert_eq!(piped_stats.reused, 3, "three requests rode a reused conn");
    assert_eq!(solo_stats.reused, 0);

    // Bitwise: pair completions across the two runs by prediction (each
    // sample predicts a distinct class) and compare the score trajectories.
    assert_eq!(piped_log.len(), 4);
    assert_eq!(solo_log.len(), 4);
    for piped in &piped_log {
        let twin = solo_log
            .iter()
            .find(|c| c.pred == piped.pred)
            .expect("same prediction appears in the solo run");
        assert_eq!(piped.scores, twin.scores, "pred {} scores", piped.pred);
        assert_eq!(piped.steps, twin.steps, "pred {} steps", piped.pred);
        assert_eq!(piped.early, twin.early, "pred {} early flag", piped.pred);
    }
}

/// The EDF discriminator: with the single lane busy, a deadline-less
/// request queued *first* must still be overtaken by an urgent request
/// queued *second* — FIFO would serve them in arrival order.
#[test]
fn edf_admission_serves_urgent_queued_requests_first() {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 1);
    cfg.queue_depth = 4;
    cfg.policy = tcl_snn::ExitPolicy::Off;
    cfg.max_steps = 20;
    cfg.steps_per_tick = 2;

    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let occupier = sim.request_at(0, infer_request(&[0.9, 0.1, 0.1, 0.1], None));
    let lax = sim.request_at(200, infer_request(&[0.1, 0.85, 0.1, 0.05], None));
    let urgent = sim.request_at(400, infer_request(&[0.05, 0.1, 0.8, 0.1], Some(10_000)));

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 2_000);

    for (name, client) in [("occupier", &occupier), ("lax", &lax), ("urgent", &urgent)] {
        assert_eq!(client.status(), Some(200), "{name}");
    }
    assert_eq!(server.stats().deadline_miss, 0);
    assert!(
        urgent.completion_index().unwrap() < lax.completion_index().unwrap(),
        "EDF admits the urgent request ahead of the earlier deadline-less one \
         (urgent {:?} vs lax {:?})",
        urgent.completion_index(),
        lax.completion_index()
    );
}

/// The read-only endpoints answer over the simulated transport.
#[test]
fn health_and_stats_endpoints_respond() {
    let net = diagonal_net(4);
    let cfg = serve_cfg(4, 2);
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let health = sim.request_at(0, tcl_serve::sim::get_request("/healthz"));
    let infer = sim.request_at(0, infer_request(&[0.9, 0.1, 0.1, 0.1], None));
    let stats = sim.request_at(5_000, tcl_serve::sim::get_request("/stats"));
    let missing = sim.request_at(0, tcl_serve::sim::get_request("/nope"));

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 200);

    assert_eq!(health.status(), Some(200));
    assert_eq!(health.body(), "ok\n");
    assert_eq!(infer.status(), Some(200));
    assert_eq!(missing.status(), Some(404));
    assert_eq!(stats.status(), Some(200));
    let completed = body_field(&stats.body(), "completed");
    assert_eq!(completed, 1.0, "stats reflect the served inference");
}

/// Hangup scripted after the response: the server must have already closed.
#[test]
fn drain_refuses_new_work_but_finishes_in_flight() {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 2);
    cfg.steps_per_tick = 2;
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let in_flight = sim.request_at(0, infer_request(&[0.5, 0.5, 0.1, 0.1], None));
    let late = sim.request_at(1_000, infer_request(&[0.9, 0.1, 0.1, 0.1], None));

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    // Admit the first request, then drain.
    server.tick();
    assert_eq!(server.lanes_active(), 1);
    server.begin_drain();
    drive(&mut server, &clock, &sim, 200, 2_000);

    assert_eq!(in_flight.status(), Some(200), "in-flight work completes");
    assert_eq!(
        late.status(),
        Some(503),
        "new work is refused while draining"
    );
    assert!(
        late.response_text().contains("Retry-After:"),
        "drain refusals advertise Retry-After"
    );
    assert!(server.idle());
}

/// Pinned by the first green run; the assert message prints the actual
/// fingerprint when a change to the serving logic legitimately moves it.
const PINNED_FINGERPRINT: &str = "200@1000#0;200@1000#1;200@1200#2;200@1600#3;200@2000#4;\
    200@2200#5;200@2600#6;200@2800#7;200@3200#11;200@3800#15;200@4600#16;200@5200#17;\
    200@5600#18;200@6000#19;200@6200#20;200@6600#21;200@3200#12;200@3400#13;200@3400#14;\
    429@3000#8;429@3000#9;429@3000#10";
