"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import curvekit  # noqa: E402
import curvekit.cli  # noqa: E402
import curvekit.sampling  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _round(tmp_path, name, seed):
    return workloads.BUILDERS[name](curvekit, workloads.Inputs(str(tmp_path), seed))


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _run(request):
    from click.testing import CliRunner

    result = CliRunner().invoke(curvekit.cli.main, list(request.argv))
    return result.exit_code, result.stdout, result.stderr


def test_generator_is_deterministic_for_a_fixed_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a, b, c = tmp_path / f"{name}-a", tmp_path / f"{name}-b", tmp_path / f"{name}-c"
        ra, rb = _round(a, name, 7), _round(b, name, 7)
        _round(c, name, 8)
        assert [r.tag for r in ra.requests] == [r.tag for r in rb.requests]
        if name == workloads.LIBRARY_SCALE:
            assert [r.call(curvekit) for r in ra.requests][0]["round_trip"] == [
                r.call(curvekit) for r in rb.requests
            ][0]["round_trip"]
            continue
        assert _files(a) == _files(b)
        assert _files(a) != _files(c)


def test_every_request_passes_the_checker(tmp_path):
    executor = run.InProcess(curvekit)
    for name in workloads.WORKLOADS:
        for request in _round(tmp_path / name, name, 3).requests:
            sample = run.execute(executor, request, checks.RepeatLedger())
            known = request.known_defect or request.n == 1000
            want = checks.KNOWN if known else checks.OK
            assert (sample.state, request.tag) == (want, request.tag), sample.reason


def test_checker_flags_a_corrupted_row(tmp_path):
    rnd = _round(tmp_path, workloads.CLI_BATCH, 3)
    boot = next(r for r in rnd.requests if r.argv[0] == "bootstrap")
    code, out, err = _run(boot)
    assert checks.cli_outcome(boot, code, out, err)[0] == checks.OK
    lines = out.splitlines()
    n, x, p, a = lines[2].split(",")
    lines[2] = ",".join((n, x, repr(float(p) * (1 + 1e-9)), a))
    corrupted = "\n".join(lines) + "\n"
    assert checks.cli_outcome(boot, code, corrupted, err)[0] == checks.FAILED

    scan = next(r for r in rnd.requests if r.argv[0] == "scan")
    code, out, err = _run(scan)
    lines = out.splitlines()
    fields = lines[1].split(",")
    fields[5] = repr(float(fields[5]) * 1.001)  # w2 no longer w1 + w3
    lines[1] = ",".join(fields)
    assert checks.cli_outcome(scan, code, "\n".join(lines) + "\n", err)[0] == checks.FAILED

    verify = next(r for r in rnd.requests if r.argv[0] == "verify")
    code, out, err = _run(verify)
    dropped = "\n".join(out.splitlines()[:-1]) + "\n"
    assert checks.cli_outcome(verify, code, dropped, err)[0] == checks.FAILED


def test_checker_flags_a_traceback_and_a_bad_exit(tmp_path):
    rnd = _round(tmp_path, workloads.CLI_BATCH, 3)
    boot = rnd.requests[0]
    code, out, _ = _run(boot)
    tb = 'Traceback (most recent call last):\n  File "x", line 1\nValueError: boom\n'
    assert checks.cli_outcome(boot, code, out, tb) == (checks.FAILED, "traceback on stderr")
    assert checks.cli_outcome(boot, 1, out, "error: boom\n")[0] == checks.FAILED
    malformed = next(r for r in rnd.requests if r.tag == "error-malformed")
    assert checks.cli_outcome(malformed, 2, "", "error: line 4: bad\n")[0] == checks.OK
    assert checks.cli_outcome(malformed, 2, "", "error: a\nerror: b\n")[0] == checks.FAILED
    nan = next(r for r in rnd.requests if r.tag == "hostile-nan")
    assert checks.cli_outcome(nan, 1, "", tb)[0] == checks.KNOWN
    assert checks.cli_outcome(nan, 1, "", "error: shift must be finite\n")[0] == checks.OK
    # a fix into a valid result is judged by the request's own output check
    verify20 = next(r for r in rnd.requests if r.tag == "verify" and r.n == 20)
    code, out, err = _run(verify20)
    assert checks.cli_outcome(nan, code, out, err)[0] == checks.OK
    assert checks.cli_outcome(nan, 0, "check,status\n", "")[0] == checks.FAILED


def test_repeat_ledger_compares_bytes_per_request():
    ledger, a, b = checks.RepeatLedger(), object(), object()
    assert ledger.same(a, b"x") and ledger.same(a, b"x")
    assert ledger.same(b, b"y")
    assert not ledger.same(a, b"x ")


def _span(tracer, parent, name, start, end):
    tracer.parent.append(parent)
    tracer.name.append(tracer.name_id(name))
    tracer.start.append(start)
    tracer.end.append(end)
    return len(tracer.start) - 1


def test_self_time_of_nested_spans():
    t = spans.Tracer()
    root = _span(t, -1, "root", 0, 100)
    a = _span(t, root, "a", 10, 40)
    _span(t, a, "a.child", 20, 30)
    _span(t, root, "b", 50, 70)
    _span(t, root, "c", 60, 80)  # overlaps b: the union 50..80 counts once
    assert list(t.self_times()) == [40, 20, 10, 20, 20]
    agg = {}
    t.aggregate(0, len(t.start), t.self_times(), agg)
    assert agg["root"] == [1, 40, 100] and agg["a"] == [1, 20, 30]


def test_wrappers_are_rebound_in_every_namespace_and_restored():
    bootstrap_module = sys.modules["curvekit.bootstrap"]

    originals = (curvekit.cli.bootstrap, curvekit.butterfly.bootstrap, curvekit.bootstrap)
    t = spans.Tracer()
    t.install()
    try:
        swaps = curvekit.SwapCurve((0.02, 0.025, 0.035))
        curvekit.cli.bootstrap(swaps)
        curvekit.butterfly.swap_butterfly(swaps, (1, 2, 3))
        bootstrap_module.check_annuity_bound(swaps, curvekit.ShiftScenario.parallel(0.01))
    finally:
        t.uninstall()
    assert (curvekit.cli.bootstrap, curvekit.butterfly.bootstrap, curvekit.bootstrap) == originals
    names = [t.names[i] for i in t.name]
    assert names.count("bootstrap.bootstrap") == 1 + 1 + 2
    assert names.count("bootstrap.shifted_bootstrap") == 1
    # shifted_bootstrap's inner bootstrap is its child, not the check's
    i = names.index("bootstrap.shifted_bootstrap")
    assert t.names[t.name[i + 2]] == "bootstrap.bootstrap" and t.parent[i + 2] == i
