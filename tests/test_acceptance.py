"""End-to-end acceptance checks for the detector stack.

Each test exercises one advertised operating characteristic at its stated
tolerance and prints a single PASS/FAIL scoreboard line (run with -s to
see them all). Monte-Carlo draws are frozen by explicit master seeds, so
every bar below is a deterministic fact about this code base, not a
flaky sample.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import isotonic_regression

from arc_cpd.bench import ExperimentGrid, phase_sweep, rows_to_csv, run_grid
from arc_cpd.core import ChangePointSet, DetectionConfig, _unit, substream
from arc_cpd.detector import TheoreticalLambda, detect, local_maximizers
from arc_cpd.metrics import covering, hausdorff
from arc_cpd.rume import RumeParams, _shortest, effective_epsilon, rume
from arc_cpd.simgen import AttackSpec, CleanSteps, Hiding, generate


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _mean_khat(row) -> float:
    return sum(k * c for k, c in row.khat_histogram.items()) / row.reps


# ---------------------------------------------------------------------------
# 1. Spurious-attack table spot checks: three cells, 100 reps each,
#    simulation-default threshold, true contamination level supplied.


def test_spurious_spot_checks():
    grid = ExperimentGrid(
        preset="spurious", n=5000,
        explicit_cells=((0.05, 1, None, 1.0, 340),
                        (0.2, 5, None, 1.0, 340),
                        (0.1, 1, None, 20.0, 340)),
        reps=100, methods=("arc",), master_seed=0, lambda_policy="sim")
    t0 = time.time()
    rows = run_grid(grid)
    per_cell = (time.time() - t0) / 3
    a, b, c = rows
    ok = (a.hist_k_eq_K >= 70 and a.mean_signed_k_error <= 0.30
          and b.mean_count_error <= 0.8
          and c.hist_k_eq_K >= 90
          and per_cell <= 600.0)
    _verdict("spurious table spot checks", ok,
             f"eps=.05: K=K {a.hist_k_eq_K}/100 (need >=70), "
             f"signed mean {a.mean_signed_k_error:.2f} (need <=0.30); "
             f"eps=.2: count error {b.mean_count_error:.2f} (need <=0.8); "
             f"sigma=20: K=K {c.hist_k_eq_K}/100 (need >=90); "
             f"{per_cell:.0f}s/cell (cap 600)")
    assert a.hist_k_eq_K >= 70
    assert a.mean_signed_k_error <= 0.30
    assert b.mean_count_error <= 0.8
    assert c.hist_k_eq_K >= 90
    assert per_cell <= 600.0


# ---------------------------------------------------------------------------
# 2. Window-width sensitivity on the hiding attack: the recommended window
#    recovers all three changes accurately; a far-too-narrow one degrades.


def test_window_sensitivity():
    rows = {}
    for win in (340, 85):
        grid = ExperimentGrid(
            preset="hiding", n=5000,
            explicit_cells=((0.1, 2, 1.0, None, win),),
            reps=100, methods=("arc",), master_seed=0, lambda_policy="sim")
        rows[win] = run_grid(grid)[0]
    wide, narrow = rows[340], rows[85]
    mean_k = _mean_khat(wide)
    ok = (2.9 <= mean_k <= 3.1 and wide.mean_scaled_dh <= 0.03
          and narrow.mean_scaled_dh >= 0.05)
    _verdict("window sensitivity", ok,
             f"2h=340: mean K {mean_k:.2f} (need 2.9..3.1), "
             f"scaled dH {wide.mean_scaled_dh:.4f} (need <=0.03); "
             f"2h=85: scaled dH {narrow.mean_scaled_dh:.4f} (need >=0.05)")
    assert 2.9 <= mean_k <= 3.1
    assert wide.mean_scaled_dh <= 0.03
    assert narrow.mean_scaled_dh >= 0.05


# ---------------------------------------------------------------------------
# 3. Null behavior: on clean constant Gaussian data the theoretical
#    threshold reports no change in at least 99 of 100 runs.


def test_clean_null_rate():
    zero = 0
    for r in range(100):
        seed = substream(301, r).child_seed()
        out = generate(AttackSpec(
            variant=CleanSteps(means=(0.0,), truth=(), sigma=1.0),
            n=2000, seed=seed))
        cfg = DetectionConfig(h=170, epsilon=0.0,
                              lambda_policy=TheoreticalLambda(4.0),
                              sigma=1.0, delta=1 / 2000,
                              seed=substream(seed, 1).child_seed())
        zero += detect(out.series, cfg).estimated.k == 0
    ok = zero >= 99
    _verdict("clean null rate", ok, f"no-change verdicts {zero}/100 (need >=99)")
    assert zero >= 99


# ---------------------------------------------------------------------------
# 4. Consistency under the hiding attack: all three changes found and each
#    located within 2h, in at least 95 of 100 runs.


def test_hidden_changes_recovered():
    h = 156  # strictly below segment_length / 8 = 156.25
    good = 0
    for r in range(100):
        seed = substream(401, r).child_seed()
        out = generate(AttackSpec(
            variant=Hiding(epsilon=0.05, blocks=2, kappa=2.0),
            n=5000, seed=seed))
        cfg = DetectionConfig(h=h, epsilon=0.05,
                              lambda_policy=TheoreticalLambda(4.0),
                              sigma=1.0, delta=1 / 5000,
                              seed=substream(seed, 1).child_seed())
        est = detect(out.series, cfg).estimated
        if est.k == out.truth_f.k:
            worst = max(abs(e - t) for e, t in
                        zip(est.locations, out.truth_f.locations))
            good += worst <= 2 * h
    ok = good >= 95
    _verdict("hidden changes recovered", ok,
             f"exact count and within-2h location {good}/100 (need >=95)")
    assert good >= 95


# ---------------------------------------------------------------------------
# 5. Trimmed-mean error bound: |estimate - mu| <= 3.2 sigma sqrt(eps_eff)
#    in at least a 1 - 5 delta fraction of 10^4 contaminated windows.


def test_trimmed_mean_error_bound():
    h, n_win, mu, sigma = 200, 400, 5.0, 1.0
    delta = 1.0 / 400
    trials = 10_000
    need = math.ceil((1 - 5 * delta) * trials)
    results = []
    ok = True
    for eps in (0.05, 0.1, 0.2):
        for atom in (10.0, 100.0):
            bound = 3.2 * sigma * math.sqrt(effective_epsilon(eps, delta, h))
            base = substream(int(eps * 100) * 1000 + int(atom), 0).child_seed()
            within = 0
            for t in range(trials):
                g = substream(base, t).generator()
                w = mu + sigma * g.standard_normal(n_win)
                w[g.random(n_win) < eps] = atom
                est = rume(w, RumeParams(eps, delta),
                           substream(base, trials + t))
                within += abs(est.estimate - mu) <= bound
            results.append(f"eps={eps}/atom={atom:g}: {within}")
            ok = ok and within >= need
    _verdict("trimmed mean error bound", ok,
             f"within-bound counts of {trials} (need >={need}): "
             + ", ".join(results))
    assert ok


# ---------------------------------------------------------------------------
# 6. Phase transition of detectability in the jump size: failure well below
#    the boundary scale, near-certain success at five times the scale,
#    monotone in between up to Monte-Carlo noise.


def test_phase_transition():
    n, big_l, eps, reps = 5000, 1250, 0.1, 100
    scale = math.sqrt(max(eps, math.log(n) / big_l))
    kappas = [m * scale for m in (0.2, 1.0, 2.0, 3.0, 5.0)]
    out = phase_sweep(n, big_l, eps, kappas, reps=reps, master_seed=6)
    rates = np.array([r for _, r in out])
    fit = isotonic_regression(rates).x
    resid = float(np.max(np.abs(rates - fit)))
    noise = 2 / math.sqrt(reps)
    ok = rates[0] <= 0.2 and rates[-1] >= 0.9 and resid <= noise
    _verdict("phase transition", ok,
             f"success rates {[f'{r:.2f}' for r in rates]} at "
             f"{[f'{k:.3f}' for k in kappas]}; low <=0.2, high >=0.9, "
             f"isotonic residual {resid:.3f} (cap {noise:.3f})")
    assert rates[0] <= 0.2
    assert rates[-1] >= 0.9
    assert resid <= noise


# ---------------------------------------------------------------------------
# 7. Oracle equivalence: fast implementations agree with exhaustive
#    reference versions across 10^4 randomized cases each.


def _brute_shorth(z, d):
    best, best_j = None, None
    for j in range(len(z) - d):
        width = z[j + d] - z[j]
        if best is None or width < best:
            best, best_j = width, j
    return (float(z[best_j]), float(z[best_j + d])), best_j + 1


def _brute_local_max(values, radius):
    n = len(values)
    keep = []
    for j in range(n):
        lo, hi = max(0, j - radius + 1), min(n, j + radius)
        if all(values[j] >= values[t] for t in range(lo, hi)):
            keep.append(j)
    kept = set(keep)
    return [j for j in keep
            if not (j - 1 in kept and values[j - 1] == values[j])]


def _brute_covering(est, truth):
    # index i (1-based) lies in the segment numbered by how many change
    # locations precede it
    def segments(cps):
        segs = {}
        for i in range(1, cps.n + 1):
            segs.setdefault(sum(t < i for t in cps.locations), set()).add(i)
        return list(segs.values())

    total = 0.0
    for t in segments(truth):
        best = 0.0
        for o in segments(est):
            best = max(best, len(t & o) / len(t | o))
        total += len(t) * best
    return total / truth.n


def _brute_hausdorff(a, b):
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.inf
    return float(max(max(min(abs(x - y) for y in b) for x in a),
                     max(min(abs(x - y) for x in a) for y in b)))


def _random_cps(g, n):
    k = int(g.integers(0, max(1, n // 3)))
    locs = np.sort(g.choice(np.arange(1, n), size=min(k, n - 1),
                            replace=False))
    return ChangePointSet(tuple(int(v) for v in locs), n)


def test_oracle_equivalence():
    cases = 10_000

    g = substream(7001, 0).generator()
    for _ in range(cases):
        h = int(g.integers(3, 65))
        d = int(g.integers(1, h))
        z = np.sort(g.standard_normal(h))
        # the estimator's kernel on one row in its unit
        row = z[None, :] * _unit(z[0], z[-1], 2)
        j0 = int(_shortest(row, np.asarray([d]))[0])
        assert ((float(z[j0]), float(z[j0 + d])), j0 + 1) == \
            _brute_shorth(z, d)

    g = substream(7002, 0).generator()
    for _ in range(cases):
        n = int(g.integers(5, 61))
        radius = int(g.integers(2, 9))
        start = int(g.integers(0, 50))
        vals = g.integers(0, 6, size=n).astype(float)
        curve = {start + i: float(v) for i, v in enumerate(vals)}
        fast = local_maximizers(curve, radius)
        ref = [start + j for j in _brute_local_max(vals, radius)]
        assert fast == ref

    g = substream(7003, 0).generator()
    for _ in range(cases):
        n = int(g.integers(2, 31))
        est, truth = _random_cps(g, n), _random_cps(g, n)
        fast = covering(est, truth)
        ref = _brute_covering(est, truth)
        assert fast == pytest.approx(ref, abs=1e-12)

    g = substream(7004, 0).generator()
    for _ in range(cases):
        n = int(g.integers(2, 400))
        a, b = _random_cps(g, n), _random_cps(g, n)
        ab, ba = hausdorff(a, b), hausdorff(b, a)
        assert ab == ba
        assert hausdorff(a, a) == 0.0
        assert ab == _brute_hausdorff(a.locations, b.locations)

    _verdict("oracle equivalence", True,
             f"{cases} cases per oracle: interval search, local maximizers, "
             f"covering, distance symmetry/identity all exact")


# ---------------------------------------------------------------------------
# 8. Determinism: a bench cell produces byte-identical CSV whether run on
#    one thread or eight.


def test_thread_determinism():
    grid = ExperimentGrid(
        preset="spurious", n=5000,
        explicit_cells=((0.1, 2, None, 1.0, 340),),
        reps=10, methods=("arc", "baseline"), master_seed=4,
        lambda_policy="sim")
    csv_one = rows_to_csv(run_grid(grid, threads=1))
    csv_eight = rows_to_csv(run_grid(grid, threads=8))
    ok = csv_one == csv_eight
    _verdict("thread determinism", ok,
             f"1-thread and 8-thread CSV {'identical' if ok else 'DIFFER'} "
             f"({len(csv_one)} bytes)")
    assert ok


# ---------------------------------------------------------------------------
# 9. Attack contrast: the plain-mean scanner is fooled by the spurious
#    attack that the robust detector shrugs off.


def test_attack_contrast():
    base_grid = ExperimentGrid(
        preset="spurious", n=5000,
        explicit_cells=((0.1, 1, None, 1.0, 800),),
        reps=100, methods=("baseline",), master_seed=9, lambda_policy="sim")
    rb = run_grid(base_grid)[0]
    fooled = rb.reps - rb.khat_histogram.get(0, 0)
    arc_grid = ExperimentGrid(
        preset="spurious", n=5000,
        explicit_cells=((0.1, 1, None, 1.0, 340),),
        reps=100, methods=("arc",), master_seed=9, lambda_policy="sim")
    ra = run_grid(arc_grid)[0]
    ok = fooled >= 90 and ra.hist_k_eq_K >= 70
    _verdict("attack contrast", ok,
             f"plain-mean scanner fooled {fooled}/100 (need >=90); "
             f"robust detector correct {ra.hist_k_eq_K}/100 (need >=70)")
    assert fooled >= 90
    assert ra.hist_k_eq_K >= 70
