"""Discrete objective, its gradient, and the active-set verifier."""

import hashlib

import numpy as np
import pytest

from corpus import (BINDING_NAMES, CM1, M1, build_corpus, build_long_arc,
                    ladder_scenarios, random_days)

from rampsched import (FleetSpec, RampSchedError, SampledProfile,
                       ValidationError, evaluate, make_scenario, solve)
from rampsched import oracle
from rampsched.oracle import (DiscreteSolution, default_start,
                              discretize_objective, oracle_to_csv,
                              solve_active_set, _gradient_density)
from rampsched.pmp import solution_to_csv

FLEET20 = FleetSpec(M1, 20)


def const_scenario(level=100.0, xstar=150.0, n=48):
    load = SampledProfile(24.0 / n, np.full(n, level))
    return make_scenario(load, FLEET20, g=CM1 / (2.0 * xstar),
                         alpha_schedule=(1.0,))


# ------------------------------------------------------------- objective

def test_objective_no_draw_constant_load():
    sc = const_scenario(level=100.0)
    val = discretize_objective(sc, np.zeros(sc.load.count))
    assert val == pytest.approx(sc.cost.g * 100.0 ** 2 * 24.0, rel=1e-12)


def test_constant_draw_keeps_ramp_terms():
    """A uniform draw shifts pg but leaves all differences unchanged."""
    corpus = build_corpus(48)
    sc = corpus["duck"]
    n = sc.load.count
    pbar = sc.cost.pbar_kw

    def ramp_part(pm):
        pg = sc.load.values + pm
        ramp = (np.roll(pg, -1) - pg) / sc.load.dt
        return float((sc.cost.d * ramp ** 2).sum() * sc.load.dt)

    assert ramp_part(np.full(n, pbar)) == pytest.approx(ramp_part(np.zeros(n)),
                                                        rel=1e-12)


def test_objective_dimension_mismatch():
    sc = const_scenario()
    with pytest.raises(ValidationError, match="pm has length"):
        discretize_objective(sc, np.zeros(sc.load.count + 1))


def test_evaluate_prices_with_discrete_objective(solved96, corpus96):
    """evaluate and its no-mining baseline are the verifier's J, binding
    scenarios included, where the draw leaves the box."""
    for name, sc in corpus96.items():
        sol = solved96[name]
        bd = evaluate(sol, sc)
        assert bd.generation_usd + bd.ramping_usd - bd.revenue_usd \
            == pytest.approx(discretize_objective(sc, sol.pm_traj[:-1]),
                             rel=1e-12), name
        assert bd.baseline.total_usd == pytest.approx(
            discretize_objective(sc, np.zeros(sc.load.count)), rel=1e-12), name


def test_solver_objective_gap_falls_at_fourth_order():
    """The RK4 solver's objective converges to the verifier's at fourth
    order in dt: on tv_cm the relative gap oracle-check reports falls at
    least 12x per halving of dt (16x for an exact fourth-order error),
    from 48 to 96 to 192 nodes."""
    gaps = []
    for n in (48, 96, 192):
        sc = build_corpus(n)["tv_cm"]
        sol, ref = solve(sc), solve_active_set(sc)
        assert sol.converged, n
        j = discretize_objective(sc, sol.pm_traj[:-1])
        gaps.append(abs(j - ref.objective) / (1.0 + abs(ref.objective)))
    assert gaps[0] < 1e-7
    assert gaps[0] >= 12.0 * gaps[1] and gaps[1] >= 12.0 * gaps[2], gaps


def test_objective_is_convex_on_random_segments():
    corpus = build_corpus(48)
    sc = corpus["duck"]
    rng = np.random.default_rng(31)
    n = sc.load.count
    for _ in range(200):
        a = rng.uniform(0.0, sc.cost.pbar_kw, n)
        b = rng.uniform(0.0, sc.cost.pbar_kw, n)
        theta = rng.uniform(0.0, 1.0)
        mid = discretize_objective(sc, (1 - theta) * a + theta * b)
        chord = ((1 - theta) * discretize_objective(sc, a)
                 + theta * discretize_objective(sc, b))
        assert mid <= chord + 1e-9 * (1.0 + abs(chord))


# ------------------------------------------------------------- gradient

def test_gradient_matches_finite_differences():
    corpus = build_corpus(48)
    for name in ("duck", "tv_cm", "peak_touch"):
        sc = corpus[name]
        rng = np.random.default_rng(5)
        pm = rng.uniform(0.0, sc.cost.pbar_kw, sc.load.count)
        grad = _gradient_density(sc)(pm)
        h = 1e-5 * sc.cost.pbar_kw
        for i in range(0, sc.load.count, 7):
            e = np.zeros_like(pm)
            e[i] = h
            fd = (discretize_objective(sc, pm + e)
                  - discretize_objective(sc, pm - e)) / (2 * h * sc.load.dt)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-8), name


# ------------------------------------------------------------- active set

def test_constant_scenario_recovers_kkt_closed_form():
    # xstar 60 and 400 pin every node, to 0 and to Pbar: the step is an
    # identity system, exact in one step
    pinned = {60.0: 0.0, 400.0: FLEET20.pbar_kw}
    for xstar in (150.0, *pinned):
        sc = const_scenario(level=100.0, xstar=xstar)
        ref = solve_active_set(sc)
        expected = np.clip(float(sc.cost.cm) / (2 * sc.cost.g) - 100.0,
                           0.0, sc.cost.pbar_kw)
        assert np.max(np.abs(ref.pm - expected)) < 1e-6, xstar
        if xstar in pinned:
            assert ref.iterations == 1, xstar
            assert np.all(ref.pm == pinned[xstar]), xstar


@pytest.fixture(scope="module")
def binding1440():
    corpus = build_corpus(1440)
    return corpus, [solve_active_set(corpus[name]) for name in BINDING_NAMES]


def test_binding_corpus_at_1440_nodes(binding1440):
    corpus, refs = binding1440
    assert tuple(r.iterations for r in refs) == (73, 134, 82, 360)
    for name, ref in zip(BINDING_NAMES, refs):
        assert ref.grad_norm <= 1e-8 * corpus[name].cost.pbar_kw, name


def test_binding_corpus_at_1440_nodes_pinned(binding1440):
    """The active-set steps keep their exact bits: sha256 of pm."""
    _, refs = binding1440
    assert [hashlib.sha256(r.pm.tobytes()).hexdigest() for r in refs] == [
        "95e2b4022eb86c8763c863b2f5c804f71cc64f1aa9f1b1cfe638285e13d352f8",
        "2eefcf57dbee0e94cf77211ef7742b3d12cfcb00e629c2a03c66ede8916384fd",
        "b7b5afed2cab641ff6396bd732371c8b48d7f684f1d30928969a5d77d687a58d",
        "67c8b87b3ec3bdec1bbbd14e062659e1519aafd62069e9c1a214abda4885466c"]


def assert_same_result(warm, cold, label):
    assert warm.pm.tobytes() == cold.pm.tobytes(), label
    assert (warm.objective, warm.grad_norm) \
        == (cold.objective, cold.grad_norm), label


@pytest.fixture(scope="module")
def binding1440_warm(binding1440):
    corpus, _ = binding1440
    return [solve_active_set(corpus[name],
                             start=solve(corpus[name]).pm_clipped[:-1])
            for name in BINDING_NAMES]


def test_binding_corpus_at_1440_nodes_warm_start(binding1440,
                                                 binding1440_warm):
    """From the solver's clipped draw the verifier returns the cold
    start's pm bit for bit (so the pinned hashes hold) in a tenth of
    its steps."""
    _, refs = binding1440
    assert tuple(w.iterations for w in binding1440_warm) == (6, 8, 8, 26)
    for name, cold, warm in zip(BINDING_NAMES, refs, binding1440_warm):
        assert_same_result(warm, cold, name)


def _warm_start_scenarios():
    for n in (48, 96, 192):
        yield from build_corpus(n).values()
    for n in (48, 96):
        yield from build_long_arc(n).values()
    for day in random_days(1, 40):
        yield from ladder_scenarios(day)


def test_warm_start_returns_cold_start_bits():
    """The result depends only on the final active sets, so a start from
    the solver's clipped draw, stopped solves included, changes the step
    count alone, and never raises it."""
    cold_steps = warm_steps = stopped = 0
    for i, sc in enumerate(_warm_start_scenarios()):
        sol = solve(sc)
        stopped += not sol.converged
        cold = solve_active_set(sc)
        warm = solve_active_set(sc, start=sol.pm_clipped[:-1])
        assert_same_result(warm, cold, i)
        assert warm.iterations <= cold.iterations, i
        cold_steps += cold.iterations
        warm_steps += warm.iterations
    assert stopped > 0
    assert warm_steps < cold_steps


def test_start_is_checked():
    sc = build_corpus(48)["partial_margin"]
    n = sc.load.count
    for start in (np.zeros(n - 1), np.zeros((n, 1))):
        with pytest.raises(ValidationError, match="start has shape"):
            solve_active_set(sc, start=start)
    for bad in (float("nan"), float("inf")):
        start = default_start(sc)
        start[3] = bad
        with pytest.raises(ValidationError, match="start must be finite"):
            solve_active_set(sc, start=start)


def test_start_outside_box_is_clipped():
    corpus = build_corpus(96)
    for name in BINDING_NAMES:
        sc = corpus[name]
        raw = solve(sc).pm_traj[:-1]
        assert raw.min() < 0.0 or raw.max() > sc.cost.pbar_kw, name
        assert_same_result(solve_active_set(sc, start=raw),
                           solve_active_set(sc), name)


def test_active_set_makes_no_dense_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    sc = build_corpus(48)["partial_margin"]
    ref = solve_active_set(sc)
    assert ref.iterations > 1
    assert ref.grad_norm <= 1e-8 * sc.cost.pbar_kw


def test_kkt_residual_at_convergence():
    for name, sc in build_corpus(48).items():
        ref = solve_active_set(sc)
        tol = 1e-8 * sc.cost.pbar_kw
        assert ref.grad_norm <= tol, name
        grad = _gradient_density(sc)(ref.pm)
        lo = ref.pm <= 0.0
        hi = ref.pm >= sc.cost.pbar_kw
        free = ~(lo | hi)
        assert np.all(grad[lo] >= -tol), name
        assert np.all(grad[hi] <= tol), name
        assert np.all(np.abs(grad[free]) <= tol), name


def test_box_respected_exactly():
    corpus = build_corpus(48)
    for name, sc in corpus.items():
        ref = solve_active_set(sc)
        assert np.all(ref.pm >= 0.0), name
        assert np.all(ref.pm <= sc.cost.pbar_kw), name


def test_repeat_solve_is_bit_identical():
    sc = build_corpus(48)["partial_margin"]
    a = solve_active_set(sc)
    b = solve_active_set(sc)
    assert a.pm.tobytes() == b.pm.tobytes()
    assert (a.objective, a.iterations, a.grad_norm) \
        == (b.objective, b.iterations, b.grad_norm)


def test_step_cap_raises(monkeypatch):
    sc = build_corpus(48)["partial_margin"]
    assert solve_active_set(sc).iterations > 1
    # a cap of one step in total
    monkeypatch.setattr(oracle, "_MAX_STEPS_PER_NODE", 1.0 / sc.load.count)
    with pytest.raises(RampSchedError, match="not settled"):
        solve_active_set(sc)


def test_start_vector_dimension_checked():
    for name, sc in build_corpus(48).items():
        start = default_start(sc)
        assert start.shape == (sc.load.count,), name
        assert np.all((start >= 0.0) & (start <= sc.cost.pbar_kw)), name


def test_default_start_is_clipped_revenue_level():
    sc = const_scenario(level=100.0, xstar=150.0)
    start = default_start(sc)
    assert np.allclose(start, 50.0)


# ------------------------------------------------------------- CSV

def test_solution_csv_bytes_pinned():
    """Both solution CSV writers keep their exact output on corpus duck."""
    sc = build_corpus(48)["duck"]
    start = DiscreteSolution(pm=default_start(sc), objective=0.0,
                             iterations=0, grad_norm=0.0)
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in
               (solution_to_csv(solve(sc), sc), oracle_to_csv(start, sc))]
    assert digests == [
        "e6cd8c68bd724f6858acaabcf7574874883f15d9e7538298c48ed63978aaef29",
        "15db26097c7c1a864b210cd6e5fc699e7b2abec5b955a417e522c5464091f0ea"]
