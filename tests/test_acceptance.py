"""Acceptance suite: every criterion at full stated scale, exact arithmetic,
zero tolerance.  Each test prints one [criterion N] PASS/FAIL line."""

import time
from fractions import Fraction

import pytest

from conftest import pair
from wdexp.bounds import run_sweep, sharpness_suite, swan_bridge_gap
from wdexp.exponents import indec_tensor_kernel, tensor_exponents
from wdexp.generator import GenParams, SplitMix64, gen_model
from wdexp.jordan import Partition, nilpotent_rank, tensor_partition, unramified_oracle_artin
from wdexp.maxplus import MaxPlusElem, mp_degree_weight, mp_vee, optimal_witness, pair_upper_bound
from wdexp.rep import reps

SWEEP_GEN = GenParams.from_strings("0,1/2,1,2", seed=0)
SWEEP_MODELS = 200
SWEEP_PAIRS = 50


def _report(n, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status} {detail} ({elapsed:.1f}s < {budget}s)", flush=True)
    return ok and elapsed < budget


@pytest.fixture(scope="module")
def sweep():
    """One full-scale sweep shared by criteria 3 and 6."""
    samples = []
    t0 = time.monotonic()
    results, summary = run_sweep(
        ("A", "AS", "B", "BS", "C", "CS"),
        SWEEP_MODELS,
        SWEEP_PAIRS,
        SWEEP_GEN,
        seed=0,
        max_terms=3,
        max_r=4,
        sample_hook=lambda model, x, y: samples.append((model, x, y)),
    )
    return results, summary, samples, time.monotonic() - t0


def test_criterion_1_unramified_oracle_equivalence(unit_model):
    t0 = time.monotonic()
    xs = reps(unit_model, 3, 8)
    mismatches = 0
    pairs = 0
    for x in xs:
        for y in xs:
            pairs += 1
            if tensor_exponents(x, y, unit_model).ar != unramified_oracle_artin(x, y):
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = _report(1, mismatches == 0,
                 f"unramified oracle equivalence: {pairs} tensor pairs, {mismatches} mismatches",
                 elapsed, 30)
    assert ok


def test_criterion_2_single_block_laws():
    t0 = time.monotonic()
    bad = 0
    for m in range(1, 13):
        for n in range(1, 13):
            if nilpotent_rank(Partition((m,)), Partition((n,))) != m * n - min(m, n):
                bad += 1
            # Clebsch-Gordan: blocks m+n-1, m+n-3, ..., |m-n|+1.
            if tensor_partition(m, n).parts != tuple(range(m + n - 1, abs(m - n), -2)):
                bad += 1
    elapsed = time.monotonic() - t0
    ok = _report(2, bad == 0, f"single-block rank and Clebsch-Gordan laws up to 12: {bad} failures",
                 elapsed, 10)
    assert ok


def test_criterion_3_theorem_sweeps(sweep):
    _, summary, _, elapsed = sweep
    violations = summary.total_violations()
    a_samples = summary.samples.get("A", 0)
    as_samples = summary.samples.get("AS", 0)
    checked_labels = sorted(summary.samples)
    ok = (
        violations == 0
        and summary.models == SWEEP_MODELS
        and a_samples >= 500
        and as_samples >= 500
        and {"A", "AS", "B", "B_indec", "BS", "BS_irr", "C", "C_irr", "CS", "CS_irr"}
        <= set(checked_labels)
    )
    ok = _report(
        3, ok,
        f"sweep over {summary.models} models x {SWEEP_PAIRS} pairs: "
        f"{violations} violations, minimality-passing samples A={a_samples} AS={as_samples}",
        elapsed, 120,
    )
    assert ok, dict(summary.violations)


def test_criterion_4_kernel_cross_check():
    t0 = time.monotonic()
    # Each block pair's partition is computed once, not once per class pair.
    partitions = {(r, s): tensor_partition(r, s).parts
                  for r in range(1, 9) for s in range(1, r + 1)}

    def expansion_oracle(r, i, s, j, m):
        # Blocks of the length-r by length-s tensor from the computed
        # partition; the irreducible tensor contributes d unramified
        # characters (d = twist degeneracy, dual pairs only) plus a
        # complement with no unramified constituent.
        ci, cj = m.classes[i], m.classes[j]
        d = ci.deg if j == ci.dual else 0
        swan = ci.dim * cj.dim * pair(m, i, j)
        assert swan.denominator == 1
        swan = swan.numerator
        complement_dim = ci.dim * cj.dim - d
        ar = 0
        sw = 0
        for rk in partitions[r, s]:
            ar += rk * (swan + complement_dim) + d * (rk - 1)
            sw += rk * swan
        return ar, sw, r * s * ci.dim * cj.dim

    mismatches = 0
    checked = 0
    for seed in range(20):
        m = gen_model(GenParams.from_strings("0,1/2,1,2", seed=seed))
        ids = sorted(m.classes)
        for ai, i in enumerate(ids):
            for j in ids[ai:]:
                for r in range(1, 9):
                    for s in range(1, r + 1):
                        checked += 1
                        if indec_tensor_kernel(r, i, s, j, m) != expansion_oracle(r, i, s, j, m):
                            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = _report(4, mismatches == 0,
                 f"kernel vs constituent expansion: {checked} cases, {mismatches} mismatches",
                 elapsed, 60)
    assert ok


def test_criterion_5_sharpness():
    t0 = time.monotonic()
    results = sharpness_suite()
    by = {}
    for r in results:
        by.setdefault(r.theorem, []).append(r)
    ok = all(r.holds for r in results)
    # dimension-2 witness: equality at 3/4 in the A bound, and B with x = y
    ok &= any(r.equality and r.lhs == Fraction(3, 4) == r.rhs for r in by.get("A", []))
    ok &= any(r.equality for r in by.get("B", []))
    # prime-dimension witnesses: self-dual tensor slope (1 - 1/ell)
    bs_values = sorted(r.lhs for r in by.get("BS_irr", []))
    ok &= bs_values == [Fraction(2, 3), Fraction(4, 5)]
    # character case attains the C bound exactly
    ok &= any(r.equality and r.lhs == 1 for r in by.get("C", []))
    # optimal witnesses attain the pair bound on 100 random quadruples
    rng = SplitMix64(55)
    witness_fail = 0
    for _ in range(100):
        d1, d2 = 1 + rng.below(9), 1 + rng.below(9)
        v1, v2 = Fraction(rng.below(120), 12), Fraction(rng.below(120), 12)
        w1, w2 = optimal_witness(d1, v1, d2, v2)
        _, v = mp_degree_weight(mp_vee(w1, w2))
        if v != pair_upper_bound(d1, v1, d2, v2):
            witness_fail += 1
    ok &= witness_fail == 0
    elapsed = time.monotonic() - t0
    ok = _report(5, ok,
                 f"sharpness witnesses exact ({len(results)} checks, "
                 f"{witness_fail} witness failures)", elapsed, 5)
    assert ok


def test_criterion_6_maxplus_laws_and_bridge(sweep):
    _, _, samples, _ = sweep
    t0 = time.monotonic()
    rng = SplitMix64(66)

    def cone_elem():
        n = 1 + rng.below(6)
        return MaxPlusElem(
            [(Fraction(rng.below(73), 12), 1 + rng.below(5)) for _ in range(n)]
        )

    bound_fail = 0
    law_fail = 0
    for _ in range(10_000):
        x, y = cone_elem(), cone_elem()
        dx, vx = mp_degree_weight(x)
        dy, vy = mp_degree_weight(y)
        _, v = mp_degree_weight(mp_vee(x, y))
        if v > dy * vx + dx * vy - min(vx, vy):
            bound_fail += 1
        if mp_vee(x, y) != mp_vee(y, x):
            law_fail += 1
    z = cone_elem()
    for x, y in [(cone_elem(), cone_elem()) for _ in range(200)]:
        if mp_vee(mp_vee(x, y), z) != mp_vee(x, mp_vee(y, z)):
            law_fail += 1
        if mp_vee(x + y, z) != mp_vee(x, z) + mp_vee(y, z):
            law_fail += 1
    bridge_fail = sum(
        1 for model, x, y in samples if swan_bridge_gap(x, y, model) < 0
    )
    elapsed = time.monotonic() - t0
    ok = _report(
        6, bound_fail == 0 and law_fail == 0 and bridge_fail == 0,
        f"max-plus cone bound on 10000 pairs ({bound_fail} fail), ring laws "
        f"({law_fail} fail), Swan bridge on {len(samples)} sweep samples "
        f"({bridge_fail} fail)", elapsed, 20,
    )
    assert ok


def test_criterion_7_generator_determinism():
    t0 = time.monotonic()
    differing = 0
    for seed in range(20):
        params = GenParams.from_strings("0,1/2,1,2", seed=seed)
        first = gen_model(params).to_json()
        second = gen_model(params).to_json()
        if first != second:
            differing += 1
    elapsed = time.monotonic() - t0
    ok = _report(7, differing == 0,
                 f"generator determinism seeds 0-19: {differing} digest mismatches",
                 elapsed, 60)
    assert ok
