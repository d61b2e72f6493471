import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from swmlab import cli
from swmlab.cli import main
import swmlab.lp as lp_module
from swmlab.lp import LpSolution
from swmlab.gain import GainContext, verify_second_half
from swmlab.instances import (load_instance, random_coverage_oracle,
                              random_instance, save_instance)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_instances"
OR_INDICATOR = str(SAMPLES / "or_indicator.json")
COVERAGE = str(SAMPLES / "coverage_three_agents.json")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(path, random_instance(4, 2, seed=0))
    return str(path)


def _assert_close(ours, ref, tol):
    """Same JSON structure and values, floats within ``tol``."""
    assert type(ours) is type(ref)
    if isinstance(ours, dict):
        assert ours.keys() == ref.keys()
        for key in ours:
            _assert_close(ours[key], ref[key], tol)
    elif isinstance(ours, list):
        assert len(ours) == len(ref)
        for a, b in zip(ours, ref):
            _assert_close(a, b, tol)
    elif isinstance(ours, float):
        assert abs(ours - ref) <= tol, (ours, ref)
    else:
        assert ours == ref


def _lp_argv(family, n, lam, beta):
    argv = ["lp", "--family", family, "--n", str(n), "--beta", beta]
    return argv + ["--lambda", lam] if lam is not None else argv


# sha256 of the whole `lp` report for every case of the benchmark's LP
# sweep and for general n=4096.  The general reports were recorded from the
# rational-row solver before the builders wrote the float matrix and keep
# every byte; the beta and beta-lambda ones are served by the structural
# solves, and were recorded once their reports had been shown to differ
# from the simplex-served ones (LP_SIMPLEX_REPORTS) only as
# test_structure_report_against_simplex_served allows
LP_REPORTS = {
    ("beta", 8, None, "1/100"):
        "939a477f7ad22246cdf6fa64cb4c07db180d964397f8aae88bb913f5eef6f266",
    ("beta", 32, None, "1/100"):
        "195b027ddfdd469f9da71cc14dc7b3612d36be176839bc498387b2db4529bdf9",
    ("beta", 128, None, "1/100"):
        "0df0024dc9c8a2ee4d7b8a30dcb1f2938499b6c21e9e0f3240891e6d39a56cd0",
    ("beta-lambda", 16, "13/16", "0"):
        "c07cf180c9ca5fa0eccecf12832a62c9bd3a7aa9ac279221b767c2166cf8ea0b",
    ("beta-lambda", 16, "13/16", "1/100"):
        "29cc1da851d73668f05081bc251d2a1a94500de15e2eb1b8e53e479d5f1561cf",
    ("beta-lambda", 64, "13/16", "0"):
        "dff0daa06ee125d72389156964dfac40413ede627d0f7f1eebe518d129a23f42",
    ("beta-lambda", 64, "13/16", "1/100"):
        "cc9b2dc92522f3b4d54c31c617a97d908a0fb9a275a0ec106baa3a380ac55388",
    ("beta-lambda", 256, "13/16", "0"):
        "1d6335e538f124240e5e125b4020fd5caf7a43aa85f325ccd006d07787af215c",
    ("beta-lambda", 256, "13/16", "1/100"):
        "7c93bbd635640f0eb8561341c921887267d341960b81da7325cabcb981043d43",
    ("general", 8, None, "0"):
        "eff18857191c7a5af1a170331f9614ea3f75b6870f45ed4f59ec2b61a9be69dd",
    ("general", 16, None, "0"):
        "bfaa92305144d061ce9008050ef0c03225c5dd21dc1d186fd98ddad2b6a5d49b",
    ("general", 32, None, "0"):
        "f39ea6bd9c181e5a108572dc4cb38829b136a62651a6496aeb03c28010977c78",
    ("general", 64, None, "0"):
        "45a77bfb450b984e6d21de8342a694478b225653560f0dac33f0597aef5a846a",
    ("general", 128, None, "0"):
        "d5c1258d756e4272f3a07bae0cd3e3dcb3b2838acaa984c7ce115791da1daee7",
    ("general", 256, None, "0"):
        "beeeb2cd2b72c581293a1c6ba7ebcf00f6acd271d250e30c6c38977a0b04a76d",
    ("general", 512, None, "0"):
        "6b25d18570822275369104f1ad085874792d7628981057da10ecf83876382570",
    ("general", 1024, None, "0"):
        "306faae189fd20d80c5a936608cf85fb1a1c22e2cbdb3abc06aa942dcdde0176",
    ("general", 4096, None, "0"):
        "f67a7bbeb82ab8e74b4eefab19291ffdd612c29a1002983a6e8e4912804d9d4c",
}
# sha256 of the beta and beta-lambda reports when the simplex serves them,
# as it did for every such report before the structural solves
LP_SIMPLEX_REPORTS = {
    ("beta", 8, None, "1/100"):
        "84e9b5a0abc6eb1028dc66ce0d6e32006d4558d7f11c5f645ff39df6e67fb599",
    ("beta", 32, None, "1/100"):
        "292404a46896db071360a594b4d14fe3d2c977ee55347791b9df983d2edc9fc1",
    ("beta", 128, None, "1/100"):
        "661f9693931fcdc8d6eedfd0f33f8edc75007c38cd2d89b1e15d21dd5b680a10",
    ("beta-lambda", 16, "13/16", "0"):
        "813f06fd321332053effcf70cc41311f89227f307d2db1c44e2d2820945687d2",
    ("beta-lambda", 16, "13/16", "1/100"):
        "9d7177cfb7ea2b6dfbb543ac365120cb357c9f3b5b3b2cf4e8f67de5a8e365ef",
    ("beta-lambda", 64, "13/16", "0"):
        "fd7e9be22c4b7f5742a669d8853f16d6b14fdafe1aedf69657db28a89dce7ee6",
    ("beta-lambda", 64, "13/16", "1/100"):
        "502137e2b013f26e939ddcbda18edf436bcc86575fe9c330a8c1a06e1a1a6167",
    ("beta-lambda", 256, "13/16", "0"):
        "92f3268a12df8290d5772ff3ea11d259b172c67850705c7dff414bb0ef2acd57",
    ("beta-lambda", 256, "13/16", "1/100"):
        "8a938676e7c3bfcbb90ca0f4d90aec8b27832baef0c60a7a542bf489e93fc413",
}
# sha256 of the `--export-lp` listing, recorded alike: one per family at
# n=16, and the edges of the trace builder's ranges (at lambda = 1/2 the
# position and second-half rows meet, lambda = 1 leaves no second-half row,
# n=4 has a single 1/(n-j) coefficient)
LP_LISTINGS = {
    ("beta", 16, None, "1/100"):
        "36afb7772d014078a28c6365d30c6e26c75d3cf52a12ae716c31f53934aa8866",
    ("beta-lambda", 16, "13/16", "1/100"):
        "d874bbdf5ad22e7446711b212c2bf6c9133d408702fe9814d091fd033e900722",
    ("general", 16, None, "0"):
        "5e4930b189f799e6c404293196f60222326c8ce2f4974e3c9acb80d202348837",
    ("beta", 4, None, "0"):
        "3a14e7dbd2116c55c840bced3b983d997a281670e122303b39fd116defd1b285",
    ("beta", 64, None, "0"):
        "4c2dbfcdb030247104550e2318eb450d13f0036c5d5b57bdacd5e5660c7f6fe6",
    ("beta-lambda", 16, "1/2", "0"):
        "cd986d856a33d21c51ad64a5357bf61d95f883c6ec543e5ecc66692d1a99b157",
    ("beta-lambda", 16, "1", "0"):
        "d3840cf0e2aec9b73aa6a951884f2114f81c8b4569e2899dddd45d61adc71246",
    ("beta-lambda", 64, "13/16", "0"):
        "ad0c88ebb1d1e72c0f29e9cf7da96edf514a44768f22fc46da9bed1064e5e40f",
    ("general", 4, None, "0"):
        "62a0931d09f68da59ee1a035bc744e263cf3da073ffc781cdaaeefe7216ddbc4",
    ("general", 64, None, "0"):
        "7922d57ca4e843cf1aa2d6b0023c6414c5277a7891e7748b813569e58c064fbf",
}


class TestSimulate:
    def test_exact_report_and_csv(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["simulate", OR_INDICATOR, "--mode", "exact",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["command"] == "simulate"
        assert report["results"]["ratio"] == pytest.approx(0.75)
        assert report["results"]["lower_bound_half_plus_beta"] >= 0.5
        csv = (tmp_path / "report.csv").read_text()
        assert csv.splitlines()[0] == "i,w,a,b"
        assert len(csv.splitlines()) == 3

    def test_exact_is_byte_deterministic(self, tmp_path, instance_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", instance_file, "--out", str(a)])
        main(["simulate", instance_file, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_mc_same_seed_byte_identical(self, tmp_path, instance_file):
        paths = []
        for run in range(3):
            out = tmp_path / f"r{run}.json"
            main(["simulate", instance_file, "--mode", "mc", "--samples",
                  "400", "--seed", "7", "--out", str(out)])
            paths.append(out)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_state_count_on_stderr_only(self, tmp_path, instance_file,
                                        capsys):
        out = tmp_path / "r.json"
        assert main(["simulate", instance_file, "--out", str(out)]) == 0
        assert "states = " in capsys.readouterr().err
        assert "states" not in out.read_text()
        main(["simulate", instance_file, "--mode", "mc", "--samples", "20",
              "--out", str(out)])
        assert "states" not in capsys.readouterr().err
        assert main(["conjecture", instance_file, "--out", str(out)]) == 0
        assert "states = " in capsys.readouterr().err
        entry = json.loads(out.read_text())["results"]["instances"][0]
        # the report keeps exactly the fields it had before states counts
        assert set(entry) == {"instance", "n", "m", "lhs", "rhs", "gap",
                              "crosscheck", "crosscheck_error", "mode",
                              "samples", "seed", "counterexample"}
        main(["conjecture", instance_file, "--mode", "mc", "--samples", "20",
              "--out", str(out)])
        assert "states" not in capsys.readouterr().err

    def test_mc_order_count_on_stderr_report_unchanged(self, tmp_path,
                                                       capsys):
        """``orders = N`` goes to stderr; the report and CSV keep the bytes
        they had before the batched order stream (sha256 pinned)."""
        out = tmp_path / "r.json"
        assert main(["simulate", COVERAGE, "--mode", "mc", "--samples",
                     "3000", "--seed", "123456789012", "--out",
                     str(out)]) == 0
        assert "orders = 3000\n" in capsys.readouterr().err
        results = json.loads(out.read_text())["results"]
        assert "orders" not in out.read_text()
        assert _sha256(json.dumps(results, sort_keys=True, indent=2)) == \
            "0d8c0ac952bdc63efc6bd311709a96a6c71dae46fb4c403951598a0ebeae5182"
        assert _sha256(out.with_suffix(".csv").read_text()) == \
            "c9fc3d4fa144ce2512a3212381fd73f129eae2136b96a79af13b71c8652d4f95"

    def test_mc_negative_seed_exits_2(self, instance_file, capsys):
        assert main(["simulate", instance_file, "--mode", "mc",
                     "--seed", "-1"]) == 2
        assert "error: expected non-negative integer" in \
            capsys.readouterr().err

    def test_threads_option_is_gone(self, instance_file):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", instance_file, "--threads", "2"])
        assert exc.value.code == 2

    def test_no_wall_clock_in_report(self, tmp_path, instance_file):
        out = tmp_path / "r.json"
        main(["simulate", instance_file, "--out", str(out)])
        assert "elapsed" not in out.read_text()
        assert "time" not in json.loads(out.read_text())["results"]

    @pytest.mark.parametrize("extra,named", [
        (["--seed", "9"], "--seed"),
        (["--samples", "10000"], "--samples"),
        (["--samples", "7", "--seed", "0"], "--seed, --samples"),
    ])
    def test_exact_refuses_unused_options(self, extra, named, tmp_path,
                                          capsys):
        """The exact engine draws no orders, so --seed and --samples exit 2
        and are named, even at their default values."""
        out = tmp_path / "r.json"
        assert main(["simulate", OR_INDICATOR, *extra, "--out",
                     str(out)]) == 2
        assert f"error: {named} not used in exact mode" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,digest,csv_digest", [
        ([],
         "09240f57a67e624e65ee479ffcc8808154caf4ddd4eeef7db47ad4803ff6738d",
         "6578daa768f9d4318530c65ff323a2c4f9ccd606f345a8ac3604d1dff6a3ea22"),
        (["--mode", "mc"],
         "83662dbad07e52747087274e47a6069e01037654db19b5db167517e0d140275c",
         "186012fac43db3a87f420f75cdce34fae4f16510fcf2af82aaea47d6d8b55459"),
        (["--mode", "mc", "--samples", "500", "--seed", "3"],
         "4091940cfba9a63ce69491f54c14d2770fb77d84ce3776ee825ec6ef7a1f705d",
         "6ef4f4f282ca0130f39196bec7d6768e5ec501c0750e0ecadfeb6a9c00c59351"),
    ])
    def test_reports_keep_their_bytes(self, argv, digest, csv_digest,
                                      tmp_path):
        """Options not given are filled in at their defaults (samples
        10000, seed 0), so the reports and CSVs keep the bytes they had
        when the parser held those defaults (sha256 pinned, the instance
        path cut to its file name)."""
        out = tmp_path / "r.json"
        assert main(["simulate", OR_INDICATOR, *argv, "--out",
                     str(out)]) == 0
        report = json.loads(out.read_text())
        report["parameters"]["instance"] = Path(OR_INDICATOR).name
        assert _sha256(json.dumps(report, sort_keys=True, indent=2)) == digest
        assert _sha256(out.with_suffix(".csv").read_text()) == csv_digest

    def test_exact_size_guard_exits_2(self, tmp_path):
        save_instance(tmp_path / "big.json", random_instance(9, 2, seed=0))
        assert main(["simulate", str(tmp_path / "big.json"),
                     "--mode", "exact"]) == 2

    def test_missing_file_exits_2(self):
        assert main(["simulate", "/nonexistent/path.json"]) == 2


class TestLp:
    def test_beta_family(self, tmp_path, capsys):
        out = tmp_path / "lp.json"
        assert main(["lp", "--family", "beta", "--n", "4",
                     "--beta", "1/100", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["num_rows"] == 11
        assert report["results"]["num_vars"] == 14
        assert report["results"]["solution"]["status"] == "optimal"

    def test_beta_lambda_with_closed_form(self, tmp_path):
        out = tmp_path / "lp.json"
        assert main(["lp", "--family", "beta-lambda", "--n", "16",
                     "--lambda", "13/16", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["closed_form"] == pytest.approx(0.54375)
        assert abs(report["results"]["difference"]) < 1e-8

    def test_beta_lambda_requires_lambda(self):
        assert main(["lp", "--family", "beta-lambda", "--n", "8"]) == 2

    @pytest.mark.parametrize("family", ["beta", "general"])
    def test_lambda_outside_beta_lambda_exits_2(self, family, capsys):
        assert main(["lp", "--family", family, "--n", "8",
                     "--lambda", "3/4"]) == 2
        assert "error: --lambda applies only to family beta-lambda" in \
            capsys.readouterr().err

    def test_nonzero_beta_for_general_exits_2(self, tmp_path, capsys):
        assert main(["lp", "--family", "general", "--n", "8",
                     "--beta", "1/10"]) == 2
        assert "error: --beta does not apply to family general" in \
            capsys.readouterr().err
        # lp-sweep passes --beta 0 to every family
        assert main(["lp", "--family", "general", "--n", "8", "--beta", "0",
                     "--out", str(tmp_path / "lp.json")]) == 0

    @pytest.mark.parametrize("message, printed", [
        ("Unable to allocate 576. GiB", "Unable to allocate 576. GiB"),
        ("", "out of memory")])
    def test_model_too_large_to_allocate_exits_2(self, monkeypatch, capsys,
                                                 message, printed):
        def too_large(n):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "build_lp_general", too_large)
        assert main(["lp", "--family", "general", "--n", "262144"]) == 2
        assert capsys.readouterr().err == f"error: {printed}\n"

    def test_general_family_reports_gap(self, tmp_path):
        out = tmp_path / "lp.json"
        assert main(["lp", "--family", "general", "--n", "8",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        # the closed form overshoots the LP optimum for this family
        assert report["results"]["difference"] < -1e-3

    def test_general_reports_switch_point_and_solver(self, tmp_path, capsys):
        outs = [tmp_path / f"lp{k}.json" for k in range(2)]
        for out in outs:
            assert main(["lp", "--family", "general", "--n", "32",
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        results = json.loads(outs[0].read_text())["results"]
        assert results["structure"] == {"switch_point": 23}
        assert results["solution"]["iterations"] == 0
        assert "solver = exact recursion" in capsys.readouterr().err

    def test_beta_lambda_names_structure(self, tmp_path, capsys):
        out = tmp_path / "lp.json"
        assert main(["lp", "--family", "beta-lambda", "--n", "16",
                     "--lambda", "13/16", "--beta", "1/100",
                     "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["structure"] == {"position_rows": 13,
                                        "budget_binding": True}
        assert results["solution"]["iterations"] == 0
        assert "\nsolver = structure\n" in capsys.readouterr().err

    def test_beta_lambda_decline_names_simplex_and_reason(self, tmp_path,
                                                          capsys):
        """Below the structure's range the simplex serves, and stderr says
        why the structure declined; the report has no structure block."""
        out = tmp_path / "lp.json"
        assert main(["lp", "--family", "beta-lambda", "--n", "16",
                     "--lambda", "3/4", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert "structure" not in results
        pivots = results["solution"]["iterations"]
        assert pivots > 0
        assert (f"\nsolver = simplex, {pivots} pivots (structure declined: "
                "negative dual on step_split_8)\n") in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(LP_SIMPLEX_REPORTS), ids=str)
    def test_structure_report_against_simplex_served(self, tmp_path,
                                                     monkeypatch, case):
        """With the structure declined, the simplex serves the report it
        always served (pinned bytes).  The structural report differs from
        it only in ``iterations`` (0), the added ``structure`` block and
        floats within 1e-12.  For beta, ``x`` may differ too, since the
        optimum is degenerate (neither the split of the budget over g nor
        the tail's a is unique); its objective must still agree within
        1e-12 and its violation be at most 1e-9."""
        family, n = case[:2]
        served = tmp_path / "structure.json"
        assert main(_lp_argv(*case) + ["--out", str(served)]) == 0
        for solver in ("solve_beta", "solve_beta_lambda"):
            monkeypatch.setattr(lp_module, solver,
                                lambda model: "declined for the test")
        fallback = tmp_path / "simplex.json"
        assert main(_lp_argv(*case) + ["--out", str(fallback)]) == 0
        assert hashlib.sha256(fallback.read_bytes()).hexdigest() == \
            LP_SIMPLEX_REPORTS[case]
        ours = json.loads(served.read_text())
        ref = json.loads(fallback.read_text())
        structure = ours["results"].pop("structure")
        if family == "beta":
            assert structure["L"] > n // 2
            assert set(structure) == {"L", "theta", "clipped_rows"}
            x = ours["results"]["solution"].pop("x")
            assert len(x) == len(ref["results"]["solution"].pop("x"))
            assert min(x) >= 0
            assert ours["results"]["solution"]["max_violation"] <= 1e-9
        else:
            assert structure == {"position_rows": n * 13 // 16,
                                 "budget_binding": True}
        assert ours["results"]["solution"].pop("iterations") == 0
        assert ref["results"]["solution"].pop("iterations") > 0
        _assert_close(ours, ref, 1e-12)

    def test_beta_names_structure(self, tmp_path, capsys):
        out = tmp_path / "lp.json"
        assert main(["lp", "--family", "beta", "--n", "8",
                     "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["structure"] == {"L": 6, "theta": "0",
                                        "clipped_rows": [4]}
        assert results["solution"]["iterations"] == 0
        assert "\nsolver = structure\n" in capsys.readouterr().err

    def test_beta_names_simplex_pivots(self, tmp_path, capsys):
        """Beyond the tail's capacity the simplex serves beta, and stderr
        says why the structure declined."""
        out = tmp_path / "lp.json"
        assert main(["lp", "--family", "beta", "--n", "8", "--beta", "1/10",
                     "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert "structure" not in results
        pivots = results["solution"]["iterations"]
        assert pivots > 0
        assert (f"\nsolver = simplex, {pivots} pivots (structure declined: "
                "budget exceeds the tail's capacity by 0.0702)\n") in \
            capsys.readouterr().err

    def test_decline_announced_before_the_simplex(self, tmp_path, capsys):
        """A declined structure says why, and the model's size, on stderr
        before the dense simplex runs."""
        assert main(["lp", "--family", "beta", "--n", "8", "--beta", "1/2",
                     "--out", str(tmp_path / "lp.json")]) == 0
        err = capsys.readouterr().err
        line = ("structure declined: budget exceeds the tail's capacity by "
                "0.47; dense simplex on 21 x 28\n")
        assert line in err
        assert err.index(line) < err.index("solve = ")

    @pytest.mark.parametrize("case", list(LP_REPORTS), ids=str)
    def test_report_bytes_pinned(self, tmp_path, capsys, case):
        """Timings go to stderr for every family; the report bytes stay as
        they were before any timing was printed."""
        out = tmp_path / "lp.json"
        assert main(_lp_argv(*case) + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == LP_REPORTS[case]
        err = capsys.readouterr().err
        assert re.search(r"^build = \d+\.\d{3} s$", err, re.M)
        assert re.search(r"^solve = \d+\.\d{3} s$", err, re.M)
        assert "build" not in out.read_text()

    @pytest.mark.parametrize("case", list(LP_LISTINGS), ids=str)
    def test_export_listing_pinned(self, tmp_path, case):
        listing = tmp_path / "model.lp"
        assert main(_lp_argv(*case) + ["--out", str(tmp_path / "r.json"),
                                       "--export-lp", str(listing)]) == 0
        assert hashlib.sha256(listing.read_bytes()).hexdigest() == \
            LP_LISTINGS[case]

    def test_export_lp_listing(self, tmp_path):
        listing = tmp_path / "model.lp"
        main(["lp", "--family", "beta", "--n", "4",
              "--out", str(tmp_path / "r.json"), "--export-lp", str(listing)])
        text = listing.read_text()
        assert "minimize:" in text and "w_1" in text

    def test_bad_n_exits_2(self):
        assert main(["lp", "--family", "beta", "--n", "6"]) == 2

    def test_negative_beta_exits_2(self, capsys):
        assert main(["lp", "--family", "beta", "--n", "8",
                     "--beta", "-1"]) == 2
        assert "error: beta must be non-negative, got -1" in \
            capsys.readouterr().err
        assert main(["lp", "--family", "beta-lambda", "--n", "16",
                     "--lambda", "13/16", "--beta=-1/100"]) == 2
        assert "error: beta must be non-negative, got -1/100" in \
            capsys.readouterr().err

    @pytest.fixture
    def not_optimal(self, monkeypatch):
        """Make the structural solve decline and every simplex solve come
        back unbounded."""
        solution = LpSolution("unbounded", -math.inf, None, math.nan, 3)
        for solver in ("solve_beta", "solve_beta_lambda"):
            monkeypatch.setattr(lp_module, solver,
                                lambda model: "declined for the test")
        monkeypatch.setattr(lp_module, "simplex_solve", lambda model: solution)

    def test_not_optimal_report_is_strict_json(self, tmp_path, not_optimal):
        out = tmp_path / "lp.json"
        main(["lp", "--family", "beta-lambda", "--n", "16",
              "--lambda", "13/16", "--out", str(out)])

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")
        report = json.loads(out.read_text(), parse_constant=reject)
        solution = report["results"]["solution"]
        assert solution["objective"] is None
        assert solution["max_violation"] is None
        assert "difference" not in report["results"]

    def test_not_optimal_exits_1_with_status(self, tmp_path, capsys,
                                             not_optimal):
        assert main(["lp", "--family", "beta", "--n", "8",
                     "--out", str(tmp_path / "lp.json")]) == 1
        assert "LP status: unbounded" in capsys.readouterr().err

    @pytest.mark.parametrize("family", [["beta", "--n", "8"],
                                        ["beta-lambda", "--n", "16",
                                         "--lambda", "13/16"]])
    def test_beta_beyond_float_range_exits_2(self, family, capsys):
        assert main(["lp", "--family", *family, "--beta", "1e400"]) == 2
        assert "error: beta is too large for a float" in \
            capsys.readouterr().err

    def test_zero_denominator_beta_exits_2(self, capsys):
        assert main(["lp", "--family", "beta", "--n", "8",
                     "--beta", "1/0"]) == 2
        assert "error: '1/0' has a zero denominator" in capsys.readouterr().err

    def test_zero_denominator_lambda_exits_2(self, capsys):
        assert main(["lp", "--family", "beta-lambda", "--n", "16",
                     "--lambda", "1/0"]) == 2
        assert "error: '1/0' has a zero denominator" in capsys.readouterr().err


# sha256 of the whole `classify` report, the instance path cut to its file
# name, recorded from the triple-loop classifier: for the sample instances
# and for seeded random instances that draw every oracle family
CLASSIFY_SAMPLES = {
    "budgeted_allocation.json":
        "ca7f6cdc199c1c256c3e59bf9ff8d6f8bb7139fecb88cd6e738da48fd5fc355d",
    "coverage_three_agents.json":
        "0ba82faa00b35bcaac6872f9691da7b203e3b3017de6159860c8a9045f67cc05",
    "or_indicator.json":
        "bce817c2ae300a9dd8e2962a30db5d0dbab00fffed576700a59888688865e2f8",
}
CLASSIFY_RANDOM = {   # (n, m, seed)
    (6, 3, 1):
        "d0e41e312bb888e5d5a1f95dd8cf93eb0205599494ea40ec198956f32aa1666d",
    (7, 5, 0):
        "632c2f6bfbc6bd0a13f8dd4ad1c46330babccfd5ee0c4b5669607b80712494e2",
    (8, 4, 1):
        "071287be114520993487f7a78319ce25821b61bec08d0cdba2cea4d3aeaac91d",
    (9, 3, 0):
        "4efbb3ee2201e3917d374bcddb4083360d552d3de771275aa138281aca720558",
    (10, 3, 1):
        "d528151d145d3508e66a57c197c7f541a832e89ed0c6abda618ef6a53b15898c",
    (11, 2, 0):
        "29761b8a5b9e67e6273adb6e616e4000160061338b295f8064605499d43bc055",
    (12, 3, 4):
        "14c0bf0a9ab513e759410a3fb7ff48bc579a20b742f1e2df2276409e9b223f87",
}


def _classify_report(path, tmp_path):
    """The `classify` report of ``path``, with the path cut to its file
    name, and its sha256."""
    out = tmp_path / "c.json"
    assert main(["classify", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    report["parameters"]["instance"] = Path(path).name
    return report, _sha256(json.dumps(report, sort_keys=True, indent=2))


class TestClassify:
    @pytest.mark.parametrize("name", sorted(CLASSIFY_SAMPLES))
    def test_sample_reports_pinned(self, tmp_path, name):
        _, digest = _classify_report(SAMPLES / name, tmp_path)
        assert digest == CLASSIFY_SAMPLES[name]

    def test_random_reports_pinned(self, tmp_path):
        """The pinned random reports hold all four labels and both kinds
        of witness."""
        labels, witnesses = set(), set()
        for (n, m, seed), pinned in CLASSIFY_RANDOM.items():
            path = tmp_path / f"mixed-{n}.json"
            save_instance(path, random_instance(
                n, m, seed, families=("coverage", "budgeted_additive",
                                      "b_matching", "cut", "table")))
            report, digest = _classify_report(path, tmp_path)
            assert digest == pinned, (n, m, seed)
            for agent in report["results"]["agents"]:
                cls = agent["classification"]
                labels.add(cls["label"])
                witnesses.update(kind for kind in ("witness_supermodular",
                                                   "witness_submodular")
                                 if cls[kind] != "None")
        assert labels == {"modular", "supermodular", "submodular", "none"}
        assert witnesses == {"witness_supermodular", "witness_submodular"}

    def test_coverage_sample(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["classify", COVERAGE, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        labels = {a["classification"]["label"]
                  for a in report["results"]["agents"]}
        assert labels == {"supermodular"}


class TestVerify:
    def test_all_checks_pass(self, tmp_path, instance_file, capsys):
        out = tmp_path / "v.json"
        assert main(["verify", instance_file,
                     "--checks", "lemmas,eq1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["passed"]
        assert set(report["results"]["checks"]) == {"lemmas", "eq1"}
        err = capsys.readouterr().err
        assert "lemmas: states = " in err and "eq1: states = " in err
        assert "states" not in out.read_text()

    def test_secondhalf_on_small_instance(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        save_instance(path, random_instance(4, 2, seed=1,
                                            families=("coverage",)))
        out = tmp_path / "v.json"
        assert main(["verify", str(path), "--checks", "secondhalf",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("states") == 1 and "secondhalf: states = " in err
        assert "states" not in out.read_text()

    def test_secondhalf_above_three_agents(self, tmp_path):
        """m=4 runs: the report's second half is the library's."""
        path = tmp_path / "i.json"
        save_instance(path, random_instance(4, 4, seed=2))
        out = tmp_path / "v.json"
        assert main(["verify", str(path), "--checks", "secondhalf",
                     "--out", str(out)]) == 0
        want = verify_second_half(GainContext(load_instance(path)))
        assert json.loads(out.read_text())["results"]["checks"][
            "secondhalf"] == json.loads(json.dumps(want.to_dict()))

    @pytest.mark.parametrize("n,checks", [(6, "lemmas,eq1"),
                                          (5, "lemmas,secondhalf")])
    def test_later_suite_refusing_prints_no_verdict(self, tmp_path, capsys,
                                                    n, checks):
        """A suite that refuses n fails the call before any verdict line
        of an earlier suite is printed, and nothing is written."""
        path = tmp_path / "i.json"
        save_instance(path, random_instance(n, 2, seed=0))
        out = tmp_path / "v.json"
        assert main(["verify", str(path), "--checks", checks,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: n must be" in err
        assert "PASS" not in err and "FAIL" not in err and "states" not in err
        assert not out.exists()

    def test_unknown_check_exits_2(self, instance_file):
        assert main(["verify", instance_file, "--checks", "bogus"]) == 2

    def test_empty_check_list_exits_2(self, instance_file, capsys):
        assert main(["verify", instance_file, "--checks", ","]) == 2
        assert "error: no checks given" in capsys.readouterr().err

    @pytest.mark.parametrize("checks", ["lemmas,lemmas", "eq1, lemmas,eq1"])
    def test_repeated_check_exits_2(self, instance_file, tmp_path, capsys,
                                    checks):
        out = tmp_path / "v.json"
        assert main(["verify", instance_file, "--checks", checks,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: repeated checks: ['" in err and "PASS" not in err
        assert not out.exists()

    def test_secondhalf_reads_the_class_whatever_the_unit(self, tmp_path):
        """Coverage weights times 1000 at one decimal still classify as
        second-order supermodular, so the recursion and slack checks run."""
        agents = []
        for seed in (2, 3):
            spec = random_coverage_oracle(
                8, np.random.default_rng(seed)).to_spec()
            spec["universe_weights"] = [round(w * 1000, 1)
                                        for w in spec["universe_weights"]]
            agents.append(spec)
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"agents": agents}))
        out = tmp_path / "v.json"
        assert main(["verify", str(path), "--checks", "secondhalf",
                     "--out", str(out)]) == 0
        half = json.loads(out.read_text())["results"]["checks"]["secondhalf"]
        assert half["second_order_supermodular"] is True


class TestConjecture:
    def test_single_instance(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["conjecture", OR_INDICATOR, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["min_gap"] >= -1e-10
        assert report["results"]["counterexample"] is None

    def test_random_scan(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["conjecture", "--random", "6", "--nmax", "4",
                     "--mmax", "2", "--seed", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["results"]["instances"]) == 6
        assert report["results"]["min_gap"] >= -1e-10

    def test_requires_instance_or_random(self):
        assert main(["conjecture"]) == 2

    def test_instance_and_random_exits_2(self, capsys):
        assert main(["conjecture", OR_INDICATOR, "--random", "3"]) == 2
        assert "error: give an instance path or --random COUNT, not both" \
            in capsys.readouterr().err

    def test_mc_order_count_on_stderr_report_unchanged(self, tmp_path,
                                                       capsys):
        out = tmp_path / "c.json"
        assert main(["conjecture", COVERAGE, "--mode", "mc", "--samples",
                     "1100", "--seed", "2", "--out", str(out)]) == 0
        assert "orders = 1100\n" in capsys.readouterr().err
        results = json.loads(out.read_text())["results"]
        # the instance field is the path as given; the pinned bytes hold
        # only its file name, so the pin does not depend on the checkout
        (entry,) = results["instances"]
        assert entry["instance"] == COVERAGE
        entry["instance"] = Path(COVERAGE).name
        assert _sha256(json.dumps(results, sort_keys=True, indent=2)) == \
            "3e2bd2dcb974b25bd91003904bc64852d6410782815da7f86bf744c09bfd6bb5"
        assert main(["conjecture", "--random", "3", "--nmax", "4",
                     "--mode", "mc", "--samples", "50"]) == 0
        assert "orders = 150\n" in capsys.readouterr().err

    def test_mc_negative_seed_exits_2(self, capsys):
        assert main(["conjecture", OR_INDICATOR, "--mode", "mc",
                     "--seed", "-1"]) == 2
        assert "error: expected non-negative integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("extra,named", [
        (["--nmax", "7", "--mmax", "6"], "--nmax, --mmax"),
        (["--mmax", "3"], "--mmax"),
        (["--seed", "0"], "--seed"),
        (["--samples", "1000"], "--samples"),
        (["--mode", "mc", "--nmax", "5"], "--nmax"),
    ])
    def test_path_refuses_unused_options(self, extra, named, tmp_path,
                                         capsys):
        """With an instance path, --nmax and --mmax are never used, and
        --seed and --samples are not used in exact mode: giving one exits
        2 and names it, even at its default value."""
        out = tmp_path / "c.json"
        assert main(["conjecture", OR_INDICATOR, *extra,
                     "--out", str(out)]) == 2
        assert f"error: {named} not used with an instance path" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_random_exact_refuses_samples(self, tmp_path, capsys):
        """An exact scan of random instances draws no orders; --seed still
        seeds the instances, so only --samples is refused."""
        out = tmp_path / "c.json"
        assert main(["conjecture", "--random", "2", "--nmax", "3",
                     "--samples", "5", "--seed", "1", "--out",
                     str(out)]) == 2
        assert "error: --samples not used with --random in exact mode" in \
            capsys.readouterr().err
        assert not out.exists()
        assert main(["conjecture", "--random", "2", "--nmax", "3",
                     "--seed", "1", "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv,digest", [
        ([OR_INDICATOR],
         "2ec221c8715335022b9283eedd7d00671e124baa37a8c82c5b65f1f89c64f0be"),
        (["--random", "3", "--nmax", "4", "--seed", "5"],
         "71d4819b5fe8312f17f9ea3a80bba682dcb325f2a8acf3f489e56da5320c7f3c"),
    ])
    def test_reports_keep_their_bytes(self, argv, digest, tmp_path):
        """Options not given are recorded at their defaults (nmax 5, mmax
        3, seed 0), so the reports keep the bytes they had when the
        parser held those defaults (sha256 pinned, instance paths cut to
        their file names so the pin does not depend on the checkout)."""
        out = tmp_path / "c.json"
        assert main(["conjecture", *argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        if report["parameters"]["instance"]:
            report["parameters"]["instance"] = Path(OR_INDICATOR).name
        for entry in report["results"]["instances"]:
            entry["instance"] = Path(entry["instance"]).name
        assert _sha256(json.dumps(report, sort_keys=True, indent=2)) == digest

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_random_below_one_exits_2(self, count, capsys):
        assert main(["conjecture", "--random", count]) == 2
        assert "error: --random must be at least 1" in \
            capsys.readouterr().err


class TestUnwritableOutput:
    @pytest.mark.parametrize("target,reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("under a file", "Not a directory")])
    @pytest.mark.parametrize("argv", [
        ["lp", "--family", "beta", "--n", "8", "--out"],
        ["simulate", OR_INDICATOR, "--csv"],
        ["lp", "--family", "beta", "--n", "8", "--export-lp"],
    ], ids=["out", "csv", "export-lp"])
    def test_exits_2_naming_the_path(self, argv, target, reason, tmp_path,
                                     capsys):
        path = {"missing": tmp_path / "missing" / "x", "directory": tmp_path,
                "under a file": tmp_path / "f" / "x"}[target]
        (tmp_path / "f").write_text("")
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: {reason}" in err.splitlines()
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ("exact", "mc"))
    def test_simulate_unwritable_csv_writes_no_report(self, mode, tmp_path,
                                                      capsys):
        out, csv = tmp_path / "r.json", tmp_path / "missing" / "y.csv"
        assert main(["simulate", OR_INDICATOR, "--mode", mode, "--out",
                     str(out), "--csv", str(csv)]) == 2
        err = capsys.readouterr().err
        assert f"error: {csv}: No such file or directory" in err.splitlines()
        assert list(tmp_path.iterdir()) == []

    def test_simulate_unwritable_derived_csv_writes_no_report(self, tmp_path,
                                                              capsys):
        """Without --csv the trace goes next to the report, with suffix
        .csv; that path is checked before the run too."""
        out = tmp_path / "r.json"
        (tmp_path / "r.csv").mkdir()
        assert main(["simulate", OR_INDICATOR, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'r.csv'}: Is a directory" in \
            err.splitlines()
        assert not out.exists()

    @pytest.mark.parametrize("option", ("--out", "--export-lp"))
    def test_lp_unwritable_output_builds_nothing(self, option, tmp_path,
                                                 monkeypatch, capsys):
        """An unwritable path fails the call before the model is built or
        solved, and no other output is written."""
        built = []
        monkeypatch.setattr(cli, "build_lp_general",
                            lambda n: built.append(n))
        bad = tmp_path / "missing" / "x"
        other = "--export-lp" if option == "--out" else "--out"
        assert main(["lp", "--family", "general", "--n", "512", option,
                     str(bad), other, str(tmp_path / "ok")]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: No such file or directory" in err.splitlines()
        assert "optimum" not in err and "build =" not in err
        assert built == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["classify", OR_INDICATOR], ["verify", OR_INDICATOR],
        ["conjecture", OR_INDICATOR]], ids=["classify", "verify",
                                            "conjecture"])
    def test_other_commands_check_out_first(self, argv, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.setattr(cli, "load_instance", lambda path: 1 / 0)
        bad = tmp_path / "missing" / "x.json"
        assert main([*argv, "--out", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: No such file or directory" in err.splitlines()

    def test_permission_denied(self, tmp_path, monkeypatch, capsys):
        """A path whose directory the user may not write to (as any user
        but root sees a read-only directory)."""
        monkeypatch.setattr(cli.os, "access",
                            lambda path, mode: mode != cli.os.W_OK)
        bad = tmp_path / "x.json"
        assert main(["lp", "--family", "beta", "--n", "8", "--out",
                     str(bad)]) == 2
        assert f"error: {bad}: Permission denied" in \
            capsys.readouterr().err.splitlines()
        assert not bad.exists()


class TestCollidingPaths:
    """An output path that repeats another path of the same call is
    refused before any work, and nothing is written."""

    def test_simulate_out_with_csv_suffix(self, tmp_path, capsys):
        """The derived CSV path of ``--out r.csv`` is ``r.csv`` itself."""
        out = tmp_path / "r.csv"
        assert main(["simulate", OR_INDICATOR, "--out", str(out)]) == 2
        assert f"error: {out}: same path as another output" in \
            capsys.readouterr().err.splitlines()
        assert list(tmp_path.iterdir()) == []

    def test_simulate_csv_equals_out(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["simulate", OR_INDICATOR, "--out", str(out),
                     "--csv", str(tmp_path / "sub" / ".." / "r.json")]) == 2
        assert "same path as another output" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_lp_export_equals_out(self, tmp_path, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "build_lp_general",
                            lambda n: built.append(n))
        out = tmp_path / "x"
        assert main(["lp", "--family", "general", "--n", "8", "--out",
                     str(out), "--export-lp", str(out)]) == 2
        assert f"error: {out}: same path as another output" in \
            capsys.readouterr().err.splitlines()
        assert built == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["classify"], ["verify"],
                                      ["conjecture"], ["simulate"],
                                      ["simulate", "--csv"]],
                             ids=["classify", "verify", "conjecture",
                                  "simulate-out", "simulate-csv"])
    def test_output_over_the_instance(self, argv, tmp_path, monkeypatch,
                                      capsys):
        path = tmp_path / "inst.json"
        text = Path(OR_INDICATOR).read_text()
        path.write_text(text)
        monkeypatch.chdir(tmp_path)
        option = argv[1] if len(argv) > 1 else "--out"
        assert main([argv[0], str(path), option, "inst.json"]) == 2
        assert "error: inst.json: same path as the instance" in \
            capsys.readouterr().err.splitlines()
        assert path.read_text() == text
        assert list(tmp_path.iterdir()) == [path]


# the optimum is 0: every agent values every set at 0
ZERO_OPTIMUM = {"agents": [
    {"kind": "coverage", "universe_weights": [0.0, 0.0],
     "item_sets": [[0], [1]]},
    {"kind": "budgeted_additive", "budget": 0.0, "weights": [1.0, 2.0]}]}
# the optimum, 2 * 1.7e308, overflows
INFINITE_OPTIMUM = {"agents": [
    {"kind": "budgeted_additive", "budget": 1.7e308,
     "weights": [1e308, 1e308]}] * 2}
# exact sums are finite, but Monte-Carlo sums of squares overflow
OVERFLOWING_SUMS = {"agents": [
    {"kind": "budgeted_additive", "budget": 1.7e308,
     "weights": [1e308, 1e308, 1.0]}]}


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
class TestNonFiniteResults:
    """A call whose report would hold a NaN or an infinity exits 2 with
    one error line and writes nothing."""

    def _run(self, spec, argv, tmp_path):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(spec))
        code = main([argv[0], str(path), *argv[1:],
                     "--out", str(tmp_path / "r.json")])
        return code, list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("spec, argv, opt", [
        (ZERO_OPTIMUM, ["simulate"], "0.0"),
        (ZERO_OPTIMUM, ["simulate", "--mode", "mc", "--samples", "5"], "0.0"),
        (ZERO_OPTIMUM, ["verify", "--checks", "lemmas,secondhalf"], "0.0"),
        (INFINITE_OPTIMUM, ["simulate"], "inf")],
        ids=["simulate", "simulate-mc", "verify", "simulate-inf"])
    def test_optimum_not_finite_and_positive_exits_2(self, spec, argv, opt,
                                                     tmp_path, capsys):
        assert self._run(spec, argv, tmp_path) == (2, True)
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == [
            f"error: reference optimum must be finite and positive, got {opt}"]

    @pytest.mark.parametrize("spec, argv", [
        (ZERO_OPTIMUM, ["conjecture"]), (ZERO_OPTIMUM, ["classify"]),
        (OVERFLOWING_SUMS, ["simulate"])],
        ids=["conjecture", "classify", "simulate-exact"])
    def test_finite_reports_still_written(self, spec, argv, tmp_path):
        """No context, or exact sums that stay finite."""
        code, clean = self._run(spec, argv, tmp_path)
        assert code == 0 and not clean

    @pytest.mark.parametrize("argv", [
        ["simulate", "--mode", "mc", "--samples", "5"],
        ["conjecture", "--mode", "mc", "--samples", "3"]],
        ids=["simulate", "conjecture"])
    def test_overflowing_sums_exit_2(self, argv, tmp_path, capsys):
        assert self._run(OVERFLOWING_SUMS, argv, tmp_path) == (2, True)
        err = capsys.readouterr().err.splitlines()
        errors = [line for line in err if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(
            "error: Out of range float values are not JSON compliant")


class TestParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_handler_replaced_after_build_runs(self, monkeypatch):
        """The cached parser holds no handler, so a wrapper installed after
        it was built (as a call tracer does) is the one that runs."""
        cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_lp", lambda args: seen.append(args.n)
                            or 0)
        assert main(["lp", "--family", "beta", "--n", "8"]) == 0
        assert seen == [8]

    def test_consecutive_calls_match_fresh_parsers(self, tmp_path):
        """Calls in a row through the one cached parser, with different
        subcommands and flags, parse and report as fresh parsers do."""
        runs = [["lp", "--family", "beta-lambda", "--n", "16",
                 "--lambda", "13/16", "--beta", "1/100"],
                ["lp", "--family", "general", "--n", "8"],
                ["conjecture", "--random", "3", "--nmax", "4", "--seed", "5"],
                ["conjecture", OR_INDICATOR],
                ["simulate", OR_INDICATOR, "--mode", "mc", "--samples", "50"],
                ["simulate", OR_INDICATOR],
                ["lp", "--family", "beta", "--n", "8"]]
        for argv in runs:
            cached = cli.build_parser().parse_args(argv)
            fresh = cli.build_parser.__wrapped__().parse_args(argv)
            assert vars(cached) == vars(fresh)
        for k, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / f"a{k}.json")]) == 0
        for k, argv in enumerate(runs):
            cli.build_parser.cache_clear()
            assert main(argv + ["--out", str(tmp_path / f"b{k}.json")]) == 0
            assert (tmp_path / f"a{k}.json").read_bytes() == \
                (tmp_path / f"b{k}.json").read_bytes()

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
