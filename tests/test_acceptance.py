"""End-to-end acceptance checks.

Each test covers one headline criterion, prints a single [PASS]/[FAIL]
line (visible with pytest -s or in captured output on failure), and then
asserts.  Run the file alone with:

    pytest tests/test_acceptance.py -s
"""
import time
from fractions import Fraction

import numpy as np

import swmlab as sl
from swmlab.oracles import mask_items
from swmlab.gain import (GainContext, conjecture_check, verify_eq1,
                         verify_lemmas, verify_second_half)
from swmlab.instances import (random_coverage_oracle,
                              random_cut_oracle, random_instance)
from swmlab.lp import (build_lp_beta_lambda, build_lp_general,
                       closed_form_beta_lambda, closed_form_general,
                       combined_secondorder_bound, simplex_solve)


def verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


class TestAcceptance:
    def test_criterion_1_asymptotic_and_finite_n_closed_forms(self):
        start = time.monotonic()
        cf = closed_form_beta_lambda(1000, Fraction(754, 1000), 0)
        ok = abs(cf.asymptotic - 0.53124) <= 5e-5
        worst = 0.0
        for n in (8, 16, 32):
            for lam in (Fraction(13, 16), Fraction(7, 8)):
                if (lam * n).denominator != 1:
                    continue   # lambda n must be integral (n=8, 13/16)
                for beta in (0, Fraction(1, 100), Fraction(2, 100)):
                    opt = simplex_solve(
                        build_lp_beta_lambda(n, lam, beta)).objective
                    exact = closed_form_beta_lambda(n, lam, beta).exact
                    worst = max(worst, abs(opt - exact))
        elapsed = time.monotonic() - start
        ok = ok and worst <= 1e-8 and elapsed < 10
        verdict(1, ok, f"asymptotic(0.754)={cf.asymptotic:.6f} "
                       f"(target 0.53124), max grid gap={worst:.2e}, "
                       f"{elapsed:.1f}s")

    def test_criterion_2_general_lp_matches_closed_form(self):
        start = time.monotonic()
        worst = 0.0
        gaps = {}
        for n in (8, 16, 32):
            opt = simplex_solve(build_lp_general(n)).objective
            gaps[n] = opt - closed_form_general(n)
            worst = max(worst, abs(gaps[n]))
        tail = abs(closed_form_general(400) - 97 / 192)
        elapsed = time.monotonic() - start
        ok = worst <= 1e-8 and tail < 5e-4 and elapsed < 10
        verdict(2, ok, f"LP-vs-closed-form gaps {gaps} (tol 1e-8), "
                       f"|closed_form(400)-97/192|={tail:.2e} (tol 5e-4), "
                       f"{elapsed:.1f}s")

    def test_criterion_3_combined_bound(self):
        val = combined_secondorder_bound()
        ok = abs(val - 0.5104) <= 1e-12
        verdict(3, ok, f"combined bound = {val!r} (target 0.5104)")

    def test_criterion_4_lemma_suite(self):
        start = time.monotonic()
        count = 0
        failed = []
        for seed in range(34):
            for n in (2, 4, 6):
                for m in (2, 3):
                    inst = random_instance(n, m, seed=1000 + seed)
                    rep = verify_lemmas(GainContext(inst))
                    count += 1
                    if not rep.passed:
                        failed.append((seed, n, m, rep.violations[:1]))
        elapsed = time.monotonic() - start
        ok = count >= 200 and not failed and elapsed < 120
        verdict(4, ok, f"{count} instances, {len(failed)} failures "
                       f"{failed[:3]}, {elapsed:.1f}s")

    def test_criterion_5_expectation_bound_suite(self):
        start = time.monotonic()
        failed = []
        for seed in range(50):
            inst = random_instance(4, 2, seed=2000 + seed)
            rep = verify_eq1(GainContext(inst), tol=1e-10)
            if not rep.passed:
                failed.append((seed, rep.lhs, rep.rhs))
        elapsed = time.monotonic() - start
        ok = not failed and elapsed < 60
        verdict(5, ok, f"50 instances, {len(failed)} failures {failed[:3]}, "
                       f"{elapsed:.1f}s")

    def test_criterion_6_second_order_suite(self):
        start = time.monotonic()
        bad = []
        for seed in range(25):
            for n in (3, 4, 5, 6):
                o = random_coverage_oracle(n, np.random.default_rng(seed))
                if sl.classify_second_order(o).label != "supermodular":
                    bad.append(("coverage", seed, n))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            if sl.classify_second_order(
                    random_cut_oracle(4, rng)).label != "modular":
                bad.append(("cut", seed))
        if sl.classify_second_order(
                sl.make_additive([1.0, 2.0, 0.5, 3.0])).label != "modular":
            bad.append(("additive",))
        checked = 0
        for seed in range(20):
            n = 3 + seed % 4
            o = random_coverage_oracle(n, np.random.default_rng(300 + seed))
            assert sl.classify_second_order(o).is_second_order_supermodular
            for smask in range(1 << n):
                for zmask in range(1 << n):
                    if smask & zmask:
                        continue
                    rep = sl.check_R_submodular(
                        o, mask_items(smask), mask_items(zmask))
                    checked += 1
                    if not rep.passed:
                        bad.append(("R", seed, smask, zmask))
        for seed in range(6):
            inst = random_instance(4, 2, seed=400 + seed)
            rep = verify_second_half(GainContext(inst))
            if not rep.passed:
                bad.append(("second_half", seed))
        elapsed = time.monotonic() - start
        ok = not bad and elapsed < 120
        verdict(6, ok, f"100 coverage + cut/additive classifications, "
                       f"{checked} R-pairs, 6 second-half runs; "
                       f"{len(bad)} failures {bad[:3]}, {elapsed:.1f}s")

    def test_criterion_7_conjecture_scan(self):
        start = time.monotonic()
        min_gap = None
        worst_cross = 0.0
        counterexamples = []
        for seed in range(50):
            n = 3 + seed % 3
            m = 2 + seed % 2
            inst = random_instance(n, m, seed=5000 + seed)
            rep = conjecture_check(inst, mode="exact")
            if min_gap is None or rep.gap < min_gap:
                min_gap = rep.gap
            worst_cross = max(worst_cross, rep.crosscheck_error)
            if rep.counterexample:
                counterexamples.append((seed, rep.gap))
        elapsed = time.monotonic() - start
        if counterexamples:
            # a counterexample is a finding, not a failure
            print(f"[NOTE] criterion 7: counterexamples found: "
                  f"{counterexamples}", flush=True)
        gap_ok = min_gap >= -1e-10 or bool(counterexamples)
        ok = gap_ok and worst_cross <= 1e-12 and elapsed < 120
        verdict(7, ok,
                f"50 instances, min gap={min_gap:.4f}, "
                f"max crosscheck error={worst_cross:.2e}, {elapsed:.1f}s")

    def test_criterion_8_byte_identical_reports(self, tmp_path):
        from swmlab.cli import main
        from swmlab.instances import save_instance
        path = tmp_path / "inst.json"
        save_instance(path, random_instance(5, 2, seed=0))
        blobs = []
        for tag in "abcd":
            out = tmp_path / f"{tag}.json"
            code = main(["simulate", str(path), "--mode", "mc", "--samples",
                         "500", "--seed", "11", "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        ok = all(b == blobs[0] for b in blobs)
        verdict(8, ok, f"4 runs byte-identical: {ok}")
