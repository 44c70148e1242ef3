"""CLI integration: golden outputs, determinism and the exit-code contract.

Golden numeric expectations are rebuilt inside each test from closed
forms (flat-curve powers, explicit exponentials), not from the library
paths under test, and formatted with the same 12-significant-digit rule
the CLI documents.
"""

import json
import math
import os
import subprocess
import sys
from random import Random

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import curvekit
from curvekit import cli
from curvekit.butterfly import SWAP, ZERO_BOND, scan_arbitrage
from curvekit.cli import _fmt, main
from curvekit.curves import zeros_from_discounts
from curvekit.sampling import random_discount_curve, random_swap_curve
from curvekit.shape import ALL_TRIPLES, CONSECUTIVE

FLAT_CSV = "tenor_years,rate\n1,0.05\n2,0.05\n3,0.05\n"
BUMP_CSV = "tenor_years,rate\n1,0.051\n2,0.05\n3,0.05\n"
ZERO_KINK_JSON = (
    '{"curve_type": "zero", "points": [{"t": 1, "r": 0.02},'
    ' {"t": 2, "r": 0.025}, {"t": 3, "r": 0.04}], "label": "kinked"}'
)


def fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0
    return format(x, ".12g")


def assert_clean_refusal(result, code):
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def flat(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text(FLAT_CSV)
    return str(path)


@pytest.fixture()
def bump(tmp_path):
    path = tmp_path / "bump.csv"
    path.write_text(BUMP_CSV)
    return str(path)


@pytest.fixture()
def zero_kink(tmp_path):
    path = tmp_path / "kink.json"
    path.write_text(ZERO_KINK_JSON)
    return str(path)


class TestBootstrapCommand:
    def test_flat_golden(self, runner, flat):
        result = runner.invoke(main, ["bootstrap", flat])
        assert result.exit_code == 0
        expected = ["n,swap_rate,discount_factor,annuity"]
        annuity = 0.0
        for n in (1, 2, 3):
            p = 1.05**-n
            annuity += p
            expected.append(f"{n},0.05,{fmt(p)},{fmt(annuity)}")
        assert result.output == "\n".join(expected) + "\n"

    def test_bump_shows_higher_second_factor(self, runner, flat, bump):
        flat_out = runner.invoke(main, ["bootstrap", flat]).output.splitlines()
        bump_out = runner.invoke(main, ["bootstrap", bump]).output.splitlines()
        flat_p2 = float(flat_out[2].split(",")[2])
        bump_p2 = float(bump_out[2].split(",")[2])
        assert bump_p2 > flat_p2

    def test_malformed_row_exits_2_with_line(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tenor_years,rate\n1,0.05\n2,oops\n")
        result = runner.invoke(main, ["bootstrap", str(path)])
        assert result.exit_code == 2
        assert "line 3" in result.output + str(result.stderr or "")

    def test_strict_exits_1_on_invalid_discounts(self, runner, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("tenor_years,rate\n1,0.2\n2,0.001\n")
        assert runner.invoke(main, ["bootstrap", str(path)]).exit_code == 0
        result = runner.invoke(main, ["bootstrap", str(path), "--strict"])
        assert result.exit_code == 1

    def test_out_writes_file(self, runner, flat, tmp_path):
        target = tmp_path / "table.csv"
        result = runner.invoke(main, ["bootstrap", flat, "--out", str(target)])
        assert result.exit_code == 0
        assert result.output == ""
        assert target.read_text().startswith("n,swap_rate")


class TestConversionCommands:
    def test_par_of_flat_swap_is_identity(self, runner, flat):
        result = runner.invoke(main, ["par", flat])
        assert result.exit_code == 0
        assert result.output == "n,par_rate\n1,0.05\n2,0.05\n3,0.05\n"

    def test_forwards_of_flat(self, runner, flat):
        result = runner.invoke(main, ["forwards", flat])
        assert result.exit_code == 0
        rows = result.output.splitlines()
        assert rows[0] == "interval_start,forward_rate"
        assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2"]
        for row in rows[1:]:
            assert float(row.split(",")[1]) == pytest.approx(0.05, abs=1e-12)

    def test_forwards_golden(self, runner, flat):
        result = runner.invoke(main, ["forwards", flat])
        assert result.output == "interval_start,forward_rate\n0,0.05\n1,0.05\n2,0.05\n"

    def test_par_of_integer_grid_zero_curve(self, runner, tmp_path):
        # A flat zero curve has the flat rate as its par rate at every tenor.
        path = tmp_path / "zero.json"
        path.write_text(
            '{"curve_type": "zero", "points": [{"t": 1, "r": 0.04},'
            ' {"t": 2, "r": 0.04}, {"t": 3, "r": 0.04}]}'
        )
        result = runner.invoke(main, ["par", str(path)])
        assert result.exit_code == 0
        for row in result.output.splitlines()[1:]:
            assert float(row.split(",")[1]) == pytest.approx(0.04, abs=1e-12)

    def test_fractional_zero_tenors_cannot_convert(self, runner, tmp_path):
        path = tmp_path / "frac.json"
        path.write_text(
            '{"curve_type": "zero", "points": [{"t": 0.5, "r": 0.04},'
            ' {"t": 1.5, "r": 0.04}]}'
        )
        assert runner.invoke(main, ["par", str(path)]).exit_code == 1

    def test_validate_clean_and_broken(self, runner, flat, tmp_path):
        assert runner.invoke(main, ["validate", flat]).exit_code == 0
        path = tmp_path / "broken.json"
        path.write_text(
            '{"curve_type": "discount", "points":'
            ' [{"t": 1, "r": 0.95}, {"t": 2, "r": 0.96}]}'
        )
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 1
        assert "2,non_decreasing_discount,0.96" in result.output


class TestScanCommand:
    def test_kinked_zero_curve_golden(self, runner, zero_kink):
        result = runner.invoke(main, ["scan", zero_kink, "--mode", "all"])
        assert result.exit_code == 0
        margin = fmt(1 * (0.02 - 0.025) + 1 * (0.04 - 0.025))
        assert result.output == (
            "leg1,leg2,leg3,margin,w1,w2,w3\n" f"1,2,3,{margin},1,2,1\n"
        )

    def test_concave_curve_empty_table(self, runner, tmp_path):
        path = tmp_path / "concave.json"
        path.write_text(
            '{"curve_type": "zero", "points": [{"t": 1, "r": 0.02},'
            ' {"t": 2, "r": 0.03}, {"t": 3, "r": 0.035}]}'
        )
        result = runner.invoke(main, ["scan", str(path), "--mode", "all"])
        assert result.exit_code == 0
        assert result.output == "leg1,leg2,leg3,margin,w1,w2,w3\n"

    def test_margins_sorted_descending(self, runner, tmp_path):
        path = tmp_path / "kinks.json"
        points = [
            {"t": 1, "r": 0.02},
            {"t": 2, "r": 0.0201},
            {"t": 3, "r": 0.026},
            {"t": 4, "r": 0.0261},
            {"t": 5, "r": 0.034},
        ]
        path.write_text('{"curve_type": "zero", "points": %s}' % str(points).replace("'", '"'))
        result = runner.invoke(main, ["scan", str(path), "--mode", "all"])
        assert result.exit_code == 0
        margins = [float(r.split(",")[3]) for r in result.output.splitlines()[1:]]
        assert margins == sorted(margins, reverse=True)

    @pytest.mark.parametrize(
        "kind, mode",
        [("zero", "all"), ("swap", "all"), ("zero", "consecutive"), ("swap", "consecutive")],
        ids=["zero", "swap", "zero-consecutive", "swap-consecutive"],
    )
    def test_all_triples_rows_format_the_library_candidates(self, runner, tmp_path, kind, mode):
        scan_mode = ALL_TRIPLES if mode == "all" else CONSECUTIVE
        rng = Random(3)
        if kind == "zero":
            curve = zeros_from_discounts(random_discount_curve(rng, 15))
            points = [{"t": t, "r": r} for t, r in zip(curve.tenors, curve.yields)]
            path = tmp_path / "zero.json"
            path.write_text(json.dumps({"curve_type": "zero", "points": points}))
            candidates = scan_arbitrage(curve, ZERO_BOND, scan_mode)
        else:
            curve = random_swap_curve(rng, 12)
            path = tmp_path / "swap.csv"
            path.write_text(
                "tenor_years,rate\n"
                + "".join(f"{n},{r!r}\n" for n, r in enumerate(curve.rates, start=1))
            )
            candidates = scan_arbitrage(curve, SWAP, scan_mode)
        result = runner.invoke(main, ["scan", str(path), "--kind", kind, "--mode", mode])
        assert result.exit_code == 0
        rows = result.output.splitlines()[1:]
        assert len(rows) == len(candidates) > 0
        for row, c in zip(rows, candidates):
            cells = (*c.legs, c.margin, *c.butterfly.weights)
            assert row == ",".join(_fmt(float(x)) for x in cells)

    @pytest.mark.parametrize("mode", ["consecutive", "all"])
    def test_tied_margins_rank_by_leg_indices(self, runner, tmp_path, mode):
        # Dyadic yields: margins are exact binary fractions, many equal.
        yields = (1 / 64, 1 / 64, 2 / 64, 2 / 64, 3 / 64, 3 / 64)
        path = tmp_path / "tied.json"
        points = [{"t": t, "r": r} for t, r in enumerate(yields, start=1)]
        path.write_text(json.dumps({"curve_type": "zero", "points": points}))
        result = runner.invoke(main, ["scan", str(path), "--mode", mode, "--tol", "0"])
        assert result.exit_code == 0
        ranked = [
            (-float(margin), int(l1), int(l2), int(l3))
            for l1, l2, l3, margin, *_ in (r.split(",") for r in result.output.splitlines()[1:])
        ]
        assert ranked == sorted(ranked)
        assert len({m for m, *_ in ranked}) < len(ranked)  # the curve does tie

    def test_negative_tolerance_is_refused(self, runner, flat):
        result = runner.invoke(main, ["scan", flat, "--kind", "swap", "--tol", "-1"])
        assert_clean_refusal(result, 1)
        assert result.stderr == "error: classification tolerance must be >= 0, got -1.0\n"

    def test_two_points_exit_1(self, runner, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("tenor_years,rate\n1,0.05\n2,0.05\n")
        result = runner.invoke(main, ["scan", str(path), "--kind", "swap"])
        assert result.exit_code == 1

    def test_invalid_curve_exit_1(self, runner, tmp_path):
        path = tmp_path / "inverted.json"
        path.write_text(
            '{"curve_type": "zero", "points": [{"t": 1, "r": 0.05},'
            ' {"t": 2, "r": 0.02}, {"t": 3, "r": 0.02}]}'
        )
        assert runner.invoke(main, ["scan", str(path)]).exit_code == 1


class TestButterflyCommand:
    def test_zero_weights_golden(self, runner, zero_kink):
        result = runner.invoke(main, ["butterfly", zero_kink, "--legs", "1,2,3"])
        assert result.exit_code == 0
        assert result.output == (
            "kind,leg1,leg2,leg3,w1,w2,w3\nzero_bond,1,2,3,1,2,1\n"
        )

    def test_swap_weights_include_annuities(self, runner, flat):
        result = runner.invoke(
            main, ["butterfly", flat, "--kind", "swap", "--legs", "1,2,3"]
        )
        assert result.exit_code == 0
        rows = result.output.splitlines()
        assert rows[0].endswith("annuity1,annuity2,annuity3")
        fields = rows[1].split(",")
        assert float(fields[4]) == pytest.approx(0.8638376, abs=1e-7)
        assert float(fields[5]) == pytest.approx(1.7708671, abs=1e-7)
        assert float(fields[6]) == pytest.approx(0.9070295, abs=1e-7)

    def test_nonparallel_moves_columns(self, runner, zero_kink):
        result = runner.invoke(
            main,
            ["butterfly", zero_kink, "--legs", "1,2,3", "--moves", "100,100,200"],
        )
        assert result.exit_code == 0
        rows = result.output.splitlines()
        fields = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert float(fields["npw1"]) == pytest.approx(0.04, abs=1e-12)
        assert float(fields["npw2"]) == pytest.approx(0.05, abs=1e-12)
        assert float(fields["npw3"]) == pytest.approx(0.01, abs=1e-12)

    def test_unordered_legs_exit_1(self, runner, zero_kink):
        result = runner.invoke(main, ["butterfly", zero_kink, "--legs", "3,2,1"])
        assert result.exit_code == 1


class TestPnlCommand:
    def test_zero_kind_single_zero_row(self, runner, zero_kink):
        result = runner.invoke(
            main, ["pnl", zero_kink, "--legs", "1,2,3", "--shift-bp", "0:0:1"]
        )
        assert result.exit_code == 0
        assert result.output == "shift_bp,horizon,value\n0,0,0\n"

    def test_zero_kind_convex_grid_nonnegative(self, runner, zero_kink):
        result = runner.invoke(
            main,
            ["pnl", zero_kink, "--legs", "1,2,3", "--shift-bp", "-500:500:100"],
        )
        assert result.exit_code == 0
        rows = result.output.splitlines()[1:]
        assert len(rows) == 11
        for row in rows:
            bp, _, value = row.split(",")
            assert float(value) >= 0.0
            if float(bp) != 0.0:
                assert float(value) > 0.0

    def test_zero_kind_value_oracle(self, runner, tmp_path):
        path = tmp_path / "affine.json"
        path.write_text(
            '{"curve_type": "zero", "points": [{"t": 1, "r": 0.02},'
            ' {"t": 2, "r": 0.03}, {"t": 3, "r": 0.04}]}'
        )
        result = runner.invoke(
            main, ["pnl", str(path), "--legs", "1,2,3", "--shift-bp", "100:100:1"]
        )
        value = float(result.output.splitlines()[1].split(",")[2])
        expected = math.exp(-0.01) + math.exp(-0.03) - 2 * math.exp(-0.02)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_swap_kind_flat_carry_identically_zero(self, runner, flat):
        result = runner.invoke(
            main,
            [
                "pnl",
                flat,
                "--kind",
                "swap",
                "--legs",
                "1,2,3",
                "--shift-bp",
                "-100:100:50",
                "--horizon",
                "1",
            ],
        )
        assert result.exit_code == 0
        rows = result.output.splitlines()
        assert rows[0] == "shift_bp,carry,mark_to_market,total"
        for row in rows[1:]:
            assert row.split(",")[1] == "0"

    def test_bad_legs_exit_1(self, runner, flat):
        result = runner.invoke(
            main,
            ["pnl", flat, "--kind", "swap", "--legs", "1,2,9", "--shift-bp", "0:0:1"],
        )
        assert result.exit_code == 1

    def test_interpolated_zero_legs(self, runner, zero_kink):
        result = runner.invoke(
            main, ["pnl", zero_kink, "--legs", "1,1.5,3", "--shift-bp", "0:0:1"]
        )
        assert result.exit_code == 0
        result = runner.invoke(
            main, ["pnl", zero_kink, "--legs", "1,2,5", "--shift-bp", "0:0:1"]
        )
        assert result.exit_code == 1  # leg beyond the tenor range


class TestVerifyCommand:
    def test_flat_parallel_all_pass_golden(self, runner, flat):
        result = runner.invoke(main, ["verify", flat, "--shift-bp", "100"])
        assert result.exit_code == 0
        assert result.output == (
            "check,status,first_violation,detail\n"
            "annuity_bound,PASS,,\n"
            "bracket_identity,PASS,,\n"
            "discount_drop,PASS,,\n"
            "annuity_ratio_decreasing,PASS,,\n"
            "discount_ratio_monotone,PASS,,\n"
            "annuity_triples,PASS,,\n"
        )

    def test_front_bump_reports_year_one_ratio_violation(self, runner, flat):
        result = runner.invoke(main, ["verify", flat, "--shift-bp", "10,0,0"])
        assert result.exit_code == 1
        failing = [
            r for r in result.output.splitlines() if r.startswith("discount_ratio_monotone")
        ]
        assert failing and failing[0].split(",")[1] == "FAIL"
        assert failing[0].split(",")[2] == "1"

    def test_trials_are_deterministic(self, runner, flat):
        args = ["verify", flat, "--shift-bp", "100", "--trials", "40", "--seed", "42"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_uniform_fall_uses_mirrored_directions(self, runner, flat):
        for shift in ("-100", "-10,-10,-10"):
            result = runner.invoke(main, ["verify", flat, "--shift-bp", shift])
            assert result.exit_code == 0, result.output
            ratio_row = [
                r
                for r in result.output.splitlines()
                if r.startswith("discount_ratio_monotone")
            ][0]
            assert ratio_row.split(",")[1] == "PASS"

    def test_different_seeds_still_pass(self, runner, flat):
        for seed in (0, 1, 7):
            result = runner.invoke(
                main,
                ["verify", flat, "--shift-bp", "100", "--trials", "10", "--seed", str(seed)],
            )
            assert result.exit_code == 0

    def test_invalid_input_curve_exit_1(self, runner, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("tenor_years,rate\n1,0.2\n2,0.001\n")
        assert runner.invoke(main, ["verify", str(path)]).exit_code == 1

    @staticmethod
    def swap_file(tmp_path, rates):
        path = tmp_path / "swaps.csv"
        rows = "".join(f"{n},{x!r}\n" for n, x in enumerate(rates, start=1))
        path.write_text("tenor_years,rate\n" + rows)
        return str(path)

    @staticmethod
    def row(output, name):
        return next(r for r in output.splitlines() if r.startswith(name + ","))

    def test_tolerance_edge_decided_by_consecutive_triples(self, runner, tmp_path):
        # The per-tenor shift that takes a flat 5% 20-year curve to factors
        # p[n] * (0.99 + 5e-11 * n): consecutive annuity-point margins stay
        # near 4e-11, wide ones such as (1, 2, 10) reach 1.1e-9.
        base = [1.05**-n for n in range(1, 21)]
        shifted = [p * (0.99 + 5e-11 * n) for n, p in enumerate(base, start=1)]
        annuity, bps = 0.0, []
        for p in shifted:
            annuity += p
            bps.append(((1.0 - p) / annuity - 0.05) / 1e-4)
        assert min(bps) > 0
        path = self.swap_file(tmp_path, (0.05,) * 20)
        result = runner.invoke(
            main, ["verify", path, "--shift-bp", ",".join(map(repr, bps))]
        )
        assert result.exit_code == 1
        assert self.row(result.output, "annuity_triples") == "annuity_triples,PASS,,"
        ratio = self.row(result.output, "discount_ratio_monotone").split(",")
        assert ratio[1:3] == ["FAIL", "1"]

    def test_failing_triple_row_names_a_consecutive_triple(self, runner, tmp_path):
        path = self.swap_file(tmp_path, (0.05,) * 10)
        shift = ",".join(["100"] * 5 + ["40"] + ["100"] * 4)
        result = runner.invoke(main, ["verify", path, "--shift-bp", shift])
        assert result.exit_code == 1
        fields = self.row(result.output, "annuity_triples").split(",", 3)
        assert fields[1:3] == ["FAIL", "4"]
        assert fields[3].startswith("base: triple (4, 5, 6) classifies convex")


class TestHostileFlags:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "{flat}", "--shift-bp", "nan"],
            ["pnl", "{flat}", "--kind", "swap", "--legs", "1,2,3", "--shift-bp", "0:inf:1"],
            ["validate", "{flat}", "--tol", "nan"],
            ["scan", "{flat}", "--kind", "swap", "--tol", "nan"],
            ["butterfly", "{flat}", "--legs", "1,2,inf"],
            ["butterfly", "{flat}", "--kind", "swap", "--legs", "1,2,inf"],
            ["pnl", "{flat}", "--kind", "swap", "--legs", "1,2,inf", "--shift-bp", "0:0:1"],
        ],
    )
    def test_non_finite_flag_is_a_clean_refusal(self, runner, flat, args):
        result = runner.invoke(main, [a.format(flat=flat) for a in args])
        assert_clean_refusal(result, 1)

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["validate", "{discount}", "--curve-type", "discount", "--tol", "-1"],
                "validation tolerance must be >= 0, got -1.0",
            ),
            (["verify", "{flat}", "--trials", "-3"], "--trials must be >= 0"),
        ],
        ids=["validate-negative-tol", "verify-negative-trials"],
    )
    def test_negative_tolerance_or_trial_count_is_refused(
        self, runner, flat, tmp_path, args, message
    ):
        # Both used to exit 0: validate printing only its header on a curve
        # with a zero factor, verify running no trials.
        discount = tmp_path / "discount.csv"
        discount.write_text("tenor_years,rate\n1,0.9\n2,0.95\n3,0.0\n")
        fields = {"flat": flat, "discount": str(discount)}
        result = runner.invoke(main, [a.format(**fields) for a in args])
        assert_clean_refusal(result, 1)
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("trials", ["100001", "1000000000", str(10**30)])
    def test_trial_count_beyond_the_cap_is_refused(self, runner, flat, trials, monkeypatch):
        # Refused before any trial runs: the seeded perturbation is never drawn.
        monkeypatch.setattr(cli, "perturb_swap_curve", None)
        result = runner.invoke(main, ["verify", flat, "--trials", trials])
        assert_clean_refusal(result, 1)
        assert result.stderr == "error: --trials exceeds the cap of 100000\n"

    def test_trial_count_at_the_cap_is_accepted(self, runner, flat, monkeypatch):
        # Stop after the first trial: the point is only that the cap admits itself.
        class Enough(Exception):
            pass

        def first_trial_only(rng, forwards):
            raise Enough

        monkeypatch.setattr(cli, "perturb_swap_curve", first_trial_only)
        result = runner.invoke(main, ["verify", flat, "--trials", str(cli.MAX_TRIALS)])
        assert isinstance(result.exception, Enough)

    @pytest.mark.parametrize("grid", ["0:1e300:1e290", "0:100001:1", "0:1:1e-300"])
    def test_shift_grid_beyond_the_row_cap_is_refused(self, runner, flat, grid):
        args = ["pnl", flat, "--kind", "swap", "--legs", "1,2,3", "--shift-bp", grid]
        result = runner.invoke(main, args)
        assert_clean_refusal(result, 1)
        assert "exceeds 100001 rows" in result.stderr

    @pytest.mark.parametrize(
        "text, args, code, message",
        [
            (
                b"tenor_years,rate\n1,0.02\xff",
                ["bootstrap", "{path}"],
                2,
                "not UTF-8 text at byte 23",
            ),
            (
                FLAT_CSV.encode(),
                ["bootstrap", "{path}", "--out", "{missing}/table.csv"],
                1,
                "cannot write {missing}/table.csv: No such file or directory",
            ),
            (
                b'{"curve_type": "zero", "points": [{"t": 1, "r": -0.4},'
                b' {"t": 2, "r": -0.4}, {"t": 100000, "r": -0.4}]}',
                ["scan", "{path}"],
                1,
                "curve fails validation: zero price does not decrease at point 1",
            ),
            (
                b'{"curve_type": "zero", "points": [{"t": 100000, "r": -0.4},'
                b' {"t": 100001, "r": -0.4}, {"t": 100002, "r": -0.4}]}',
                ["scan", "{path}"],
                1,
                "curve fails validation: zero price does not decrease at point 1",
            ),
            (
                ZERO_KINK_JSON.encode(),
                ["pnl", "{path}", "--legs", "1,2,3", "--shift-bp", "-1e7:-1e7:1"],
                1,
                "butterfly value overflows at shift -1000.0",
            ),
            (
                ZERO_KINK_JSON.encode(),
                ["pnl", "{path}", "--legs", "1,2.5,3", "--shift-bp=-2365700:-2365700:1"],
                1,
                "butterfly value overflows at shift -236.57000000000002",
            ),
            (
                b'{"curve_type":"zero","points":[{"t":1,"r":1' + b"0" * 400 + b"}]}",
                ["validate", "{path}"],
                2,
                "points[0] has non-numeric 't' or 'r'",
            ),
            (
                b'{"curve_type":"zero","points":[{"t":1,"r":1' + b"0" * 5000 + b"}]}",
                ["validate", "{path}"],
                2,
                "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion:"
                " value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit",
            ),
            (
                b'{"curve_type":"zero","points":[{"t":true,"r":0.01}]}',
                ["validate", "{path}"],
                2,
                "points[0] has non-numeric 't' or 'r'",
            ),
            (
                b'{"curve_type":"zero","points":[{"t":1,"r":0.01},{"t":2,"r":false}]}',
                ["validate", "{path}"],
                2,
                "points[1] has non-numeric 't' or 'r'",
            ),
            (
                b'{"curve_type":"swap","points":[{"t":"1","r":"0.02"},{"t":"2","r":"0.03"}]}',
                ["bootstrap", "{path}"],
                2,
                "points[0] has non-numeric 't' or 'r'",
            ),
            (
                b'{"curve_type":"zero","points":' + b"[" * 100000 + b"]" * 100000 + b"}",
                ["validate", "{path}"],
                2,
                "invalid JSON: maximum recursion depth exceeded"
                " while decoding a JSON array from a unicode string",
            ),
        ],
        ids=[
            "non-utf8-file",
            "out-into-missing-dir",
            "zero-price-overflow",
            "zero-price-overflow-at-first-point",
            "pnl-exp-overflow",
            "pnl-sum-overflow",
            "json-number-beyond-float",
            "json-integer-beyond-digit-limit",
            "json-boolean-tenor",
            "json-boolean-rate",
            "json-numeric-strings",
            "json-nesting-beyond-recursion-limit",
        ],
    )
    def test_file_and_arithmetic_failures(self, runner, tmp_path, text, args, code, message):
        path = tmp_path / "curve.txt"
        path.write_bytes(text)
        fields = {"path": str(path), "missing": str(tmp_path / "missing")}
        result = runner.invoke(main, [a.format(**fields) for a in args])
        assert_clean_refusal(result, code)
        assert result.stderr == f"error: {message.format(**fields)}\n"

    @pytest.mark.parametrize(
        "args, text",
        [
            (["bootstrap"], "tenor_years,rate\n1,0.05\n2.5,0.05\n"),
            (
                ["validate"],
                '{"curve_type": "discount", "points": [{"t": 1, "r": 0.95},'
                ' {"t": 2, "r": 0.9}, {"t": 4, "r": 0.8}]}',
            ),
        ],
    )
    def test_off_grid_file_exits_2(self, runner, tmp_path, args, text):
        path = tmp_path / "offgrid.txt"
        path.write_text(text)
        result = runner.invoke(main, args + [str(path)])
        assert result.exit_code == 2
        assert "tenors must be the consecutive integers 1..N" in result.stderr


# Flag values for the CLI property: hostile strings every free-form flag may
# get, and per command the flags it takes with a few sane values, so that
# draws also reach the code behind the parsers.  Choice flags draw only
# their choices; --out is left out, since a drawn value would name a file
# to write.
HOSTILE = ["nan", "inf", "-1", "1e308", "", "x", "1,2", "1,2,inf", "0:inf:1", "0:1e300:1e290"]
CHOICE_FLAGS = {"--curve-type", "--kind", "--mode"}
CURVE_TYPES = ["swap", "zero", "discount"]
FUZZ_COMMANDS = {
    "bootstrap": {"--strict": None},
    "par": {"--curve-type": CURVE_TYPES},
    "forwards": {"--curve-type": CURVE_TYPES},
    "validate": {"--curve-type": CURVE_TYPES, "--tol": ["1e-12"]},
    "scan": {"--kind": ["zero", "swap"], "--mode": ["consecutive", "all"], "--tol": ["1e-9"]},
    "butterfly": {
        "--kind": ["zero", "swap"],
        "--legs": ["1,2,3", "1,1.5,3"],
        "--moves": ["40,50,60"],
        "--horizon": ["0.5"],
    },
    "pnl": {
        "--kind": ["zero", "swap"],
        "--legs": ["1,2,3", "1,2.5,4"],
        "--shift-bp": ["-100:100:50"],
        "--horizon": ["0.5"],
    },
    "verify": {"--shift-bp": ["100", "-60", "10,20,30,40"], "--trials": ["2"], "--seed": ["7"]},
}
FUZZ_FILES = {
    "swap.csv": b"tenor_years,rate\n1,0.02\n2,0.025\n3,0.03\n4,0.032\n",
    "invalid.csv": b"tenor_years,rate\n1,0.2\n2,0.001\n3,0.001\n",
    "malformed.csv": b"tenor_years,rate\n1,0.05\n2,oops\n",
    "latin1.csv": b"tenor_years,rate\n1,0.02\xff\n",
    "zero.json": ZERO_KINK_JSON.encode(),
    "zero5.json": b'{"curve_type": "zero", "points": [{"t": 0.5, "r": 0.01}, {"t": 1, "r": 0.02},'
    b' {"t": 2, "r": 0.021}, {"t": 3, "r": 0.03}, {"t": 4, "r": 0.031}]}',
    "discount.json": b'{"curve_type": "discount", "points": [{"t": 1, "r": 0.97},'
    b' {"t": 2, "r": 0.94}, {"t": 3, "r": 0.9}]}',
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in FUZZ_FILES.items():
        (root / name).write_bytes(data)
    return sorted(str(root / name) for name in FUZZ_FILES)


class TestCliProperty:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_invocation_keeps_the_exit_code_contract(self, fuzz_files, data):
        command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
        args = [command, data.draw(st.sampled_from(fuzz_files))]
        for flag, sane in FUZZ_COMMANDS[command].items():
            if sane is None:
                args += [flag] if data.draw(st.booleans()) else []
                continue
            pool = sane if flag in CHOICE_FLAGS else HOSTILE + sane
            value = data.draw(st.none() | st.sampled_from(pool))
            args += [] if value is None else [flag, value]
        result = CliRunner().invoke(main, args)
        assert result.exit_code in (0, 1, 2), args
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        lines = result.stderr.splitlines()
        # validate and verify report findings on stdout and exit 1 silently.
        finding = command in ("validate", "verify") and not lines
        if result.exit_code == 1 and not finding:
            assert len(lines) == 1 and lines[0].startswith("error: "), (args, lines)


class TestDeterminismAcrossCommands:
    def test_repeated_runs_byte_identical(self, runner, flat, bump, zero_kink):
        invocations = [
            ["bootstrap", flat],
            ["bootstrap", bump],
            ["par", flat],
            ["forwards", bump],
            ["validate", flat],
            ["scan", zero_kink, "--mode", "all"],
            ["butterfly", zero_kink, "--legs", "1,2,3", "--moves", "50,75,100"],
            ["pnl", zero_kink, "--legs", "1,2,3", "--shift-bp", "-200:200:100"],
            ["verify", flat, "--shift-bp", "25", "--trials", "15", "--seed", "9"],
        ]
        for args in invocations:
            first = runner.invoke(main, args)
            second = runner.invoke(main, args)
            assert first.output == second.output, args
            assert first.exit_code == second.exit_code, args


def test_cli_import_adds_no_dataclasses_or_json():
    # Start-up is most of a short command, so importing the CLI must not load
    # these two modules, which click itself does not load.
    code = (
        "import sys, click; before = set(sys.modules); import curvekit.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(curvekit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(result.stdout.split())
    assert "curvekit.cli" in added
    assert not added & {"dataclasses", "json"}
