//! The traced replay changes nothing the library computes: a request
//! replayed through the timing decorator (and, on fleets, the observing
//! cluster provider) reproduces the untraced solve's endpoints,
//! `PipelineStats` and `QueueStats` bit for bit.

use perfbench::inputs;
use perfbench::probe::{take_fleets, take_spans, Observed, CORRECT, EVAL};
use perfbench::replay::{solve_traced, CELLS};
use polygpu::engine::Sharded;
use polygpu::homotopy::solve::{Solver, StartSelection};
use polygpu::homotopy::CorrectorMode;

#[test]
fn shrunken_dim32_request_replays_bit_for_bit() {
    // The solve-dim32 request at n = 6: fixed double-double, the fused
    // device-resident corrector, a two-device point-sharded fleet. The
    // step cap bounds the test's time whether or not the paths converge.
    let mut request =
        inputs::dim32_request(6, inputs::mix(7, 20, 0)).with_starts(StartSelection::FirstN(2));
    request.params.max_steps = 150;
    let report = Solver::from_builder(inputs::dim32_spec(Sharded))
        .solve(&request)
        .expect("the shrunken request solves");
    let observed = Solver::from_builder(inputs::dim32_spec(Observed));
    let replay = solve_traced(&observed, &request).expect("the replay solves");
    assert!(
        replay.matches(&report),
        "traced replay differs from the solve"
    );
    assert!(
        report.engine.factor_seconds > 0.0,
        "the fused corrector ran"
    );
    let spans = take_spans();
    assert!(spans.iter().any(|s| s.layer == CORRECT));
    let fleets = take_fleets();
    assert_eq!(fleets.len(), 1, "one fleet engine per pass");
    assert_eq!(fleets[0].device_wall.len(), 2);

    // Endpoints alone would not catch a decorator that dropped
    // `try_correct_batch`: the host corrector reaches the same endpoints
    // with different modeled statistics. The comparison must see that.
    let host = request.with_corrector(CorrectorMode::Host);
    let host_replay = solve_traced(&observed, &host).expect("the host-corrector replay solves");
    assert_eq!(host_replay.endpoints, replay.endpoints);
    assert!(!host_replay.matches(&report));
    take_spans();
    take_fleets();
}

#[test]
fn solve_small_requests_replay_bit_for_bit() {
    // One dense direct-encoded request and one sparse mixed-cell request
    // on packed keys.
    for i in [0, 2] {
        let case = inputs::small_case(3, i);
        assert_eq!(case.packed, i == 2, "request {i}: encoding");
        let spec = inputs::small_spec(case.packed);
        let report = Solver::from_builder(spec.clone())
            .solve(&case.request)
            .expect("the request solves");
        let replay =
            solve_traced(&Solver::from_builder(spec), &case.request).expect("the replay solves");
        assert!(
            replay.matches(&report),
            "request {i}: traced replay differs"
        );
        assert_eq!(
            report
                .paths
                .iter()
                .map(|p| p.endpoint.clone())
                .collect::<Vec<_>>(),
            case.reference,
            "request {i}: the device solve matches the CPU reference"
        );
        let spans = take_spans();
        assert!(spans.iter().any(|s| s.layer == EVAL));
        assert_eq!(
            spans.iter().any(|s| s.layer == CELLS),
            case.packed,
            "request {i}: mixed cells are timed on the sparse request only"
        );
    }
}
