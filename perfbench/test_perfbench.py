"""Tests of the benchmark's oracles, checks, tracer and inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench

The oracles are tested against enumeration in a small box, Leibniz
determinants and closed forms; each check is shown to pass plumbook's real
report and to reject it with any one number changed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
from fractions import Fraction
from math import prod

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTED, LAYERS, Tracer  # noqa: E402

cli = pytest.importorskip("plumbook.cli")


def leibniz(a) -> int:
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
    return total


def small_graphs(count: int, m_max: int, seed: int = 7):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        m = rng.randint(1, m_max)
        edges = {(rng.randrange(v), v) for v in range(1, m)}
        if m > 2 and rng.random() < 0.5:
            edges.add(tuple(sorted(rng.sample(range(m), 2))))
        graph = oracles.make_graph([rng.randint(-5, -1) for _ in range(m)],
                                   [rng.randint(0, 2) for _ in range(m)], edges)
        if oracles.is_negative_definite(graph):
            found.append(graph)
    return found


# --- oracles -----------------------------------------------------------------

def test_bareiss_matches_leibniz():
    rng = random.Random(1)
    full = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        minors = oracles.leading_minors(a)
        if len(minors) == n:
            # the last leading minor is the determinant
            assert minors[-1] == leibniz(a) != 0
            full += 1
        for k, value in enumerate(minors, start=1):
            assert value == leibniz([row[:k] for row in a[:k]])
        if len(minors) < n:
            assert leibniz([row[:len(minors) + 1] for row in a[:len(minors) + 1]]) == 0
    assert full > 100


def test_definiteness_matches_enumerated_quadratic_form():
    rng = random.Random(2)
    for _ in range(150):
        m = rng.randint(1, 4)
        edges = {(rng.randrange(v), v) for v in range(1, m)}
        graph = oracles.make_graph([rng.randint(-3, -1) for _ in range(m)], [0] * m, edges)
        a = oracles.matrix(graph)
        form = lambda x: sum(a[i][j] * x[i] * x[j] for i in range(m) for j in range(m))
        negative = all(form(x) < 0 for x in itertools.product(range(-3, 4), repeat=m) if any(x))
        # an indefinite form of this size always shows inside the box
        assert oracles.is_negative_definite(graph) == negative


def enumerated_least_divisor(graph, box: int):
    c = oracles.thresholds(graph)
    feasible = [d for d in itertools.product(range(1, box + 1), repeat=graph.m)
                if all(r <= t for r, t in zip(oracles.row_sums(graph, d), c))]
    least = tuple(min(d[i] for d in feasible) for i in range(graph.m))
    assert least in feasible
    return least


def test_least_divisor_matches_enumeration():
    for graph in small_graphs(40, 3):
        d, _ = oracles.least_divisor(graph)
        assert tuple(d) == enumerated_least_divisor(graph, max(d) + 3)


def test_least_divisor_family_anchor():
    # README: the N=3 member's graph has divisor (30, 87) and binding (3, 57)
    graph = oracles.family_graph(3)
    assert oracles.least_divisor(graph)[0] == [30, 87]
    assert [-x for x in oracles.row_sums(graph, [30, 87])] == [3, 57]
    assert enumerated_least_divisor(graph, 90) == (30, 87)


def test_continued_fractions():
    assert oracles.chain_fraction([2] * 5) == (6, 5)          # A_5: det = 6
    assert oracles.chain_fraction([3, 2]) == (5, 2)
    rng = random.Random(3)
    for _ in range(50):
        a = [rng.randint(2, 30) for _ in range(rng.randint(1, 6))]
        graph = oracles.make_graph([-x for x in a], [0] * len(a),
                                   [(i, i + 1) for i in range(len(a) - 1)])
        assert oracles.chain_determinant(a) == leibniz(oracles.matrix(graph))
        legs = [[rng.randint(2, 9) for _ in range(rng.randint(1, 2))] for _ in range(3)]
        b = rng.randint(2, 9)
        euler, edges = [-b], []
        for leg in legs:
            prev = 0
            for x in leg:
                euler.append(-x)
                edges.append((prev, len(euler) - 1))
                prev = len(euler) - 1
        star = oracles.make_graph(euler, [0] * len(euler), edges)
        assert oracles.star_determinant(b, legs) == leibniz(oracles.matrix(star))


def test_generated_determinants_have_the_stated_size():
    rng = random.Random(4)
    for make in (workloads.hj_chain, workloads.hj_star):
        for _ in range(5):
            graph, det = make(rng)
            assert oracles.is_negative_definite(graph)
            assert det == oracles.leading_minors(oracles.matrix(graph))[-1]
            assert 30 <= len(str(abs(det))) <= 75


def test_family_quartics_and_readme_anchor():
    for N in range(3, 80):
        if not oracles.family_valid(N):
            continue
        s, t = 3, oracles.family_t(N)
        plane = (s + t) * (s + t - 1) + (t - 1) * ((N - 1) * t - 1) + 1 - (s + 1)
        assert oracles.mu_quartic(N) == (N - 2) * plane
        member = oracles.family_member(N)
        k2, m, h = member["k squared"], member["m"], member["h"]
        assert member["sigma"] == -(2 * member["mu"] + k2 + m + 2 * h) / 3
        assert member["sigma"].denominator == 1 and member["p_g"].denominator == 1
        g = oracles.family_graph(N)
        r = [Fraction(x) for x in _solve(oracles.matrix(g), [2 * gg - 2 - e for e, gg
                                                               in zip(g.euler, g.genus)])]
        assert k2 == sum(x * (2 * gg - 2 - e) for x, e, gg in zip(r, g.euler, g.genus))
    five = oracles.family_member(5)   # README: mu=205347, sigma=-86437, p_g=29816
    assert (five["mu"], five["sigma"], five["p_g"]) == (205347, -86437, 29816)


def _solve(a, b):
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[-1] for row in rows]


def test_surgery_oracle_balances():
    for N in (5, 8, 50):
        out = oracles.surgery(100, -20, N)
        member = oracles.family_member(N)
        g_a, g_b = member["genera"]
        # removing the neighbourhood (two surfaces plumbed once) and gluing a
        # fibre with b2 = mu, b0 = 1 and no b1 or b3
        assert out["chi"] - 100 == (1 + member["mu"]) - ((2 - 2 * g_a) + (2 - 2 * g_b) - 1)
        assert out["sigma"] + 20 == member["sigma"] + 2
        assert 4 * out["chi_h"] == out["chi"] + out["sigma"]


# --- checks ------------------------------------------------------------------

def report(argv, is_json):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv) + (["--json"] if is_json else [])) == 0
    return checks.parse(out.getvalue(), is_json)


def numeric_paths(value, path=()):
    """Paths of every number in a parsed report (bools are not numbers)."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numeric_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from numeric_paths(item, path + (i,))
    elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        yield path


def changed(value, path, edit=lambda x: x + 1):
    if not path:
        return edit(value)
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = changed(value[path[0]], path[1:], edit)
    return copy


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("graphs"))
    rng = random.Random(5)
    out = [workloads._case(oracles.family_graph(5), os.path.join(directory, "f5.pg"))]
    for i, graph in enumerate(small_graphs(3, 5, seed=11)):
        out.append(workloads._case(graph, os.path.join(directory, f"g{i}.pg")))
    graph, det = workloads.hj_star(rng)
    out.append(workloads._case(graph, os.path.join(directory, "star.pg"), det))
    return out


def op_cases(cases):
    for case in cases:
        i = ["-i", case.path]
        yield workloads.Op("check", ("check", *i), False, case)
        yield workloads.Op("canonical", ("canonical", *i), False, case)
        yield workloads.Op("divisor", ("divisor", *i), False, case)
        yield workloads.Op("openbook", ("openbook", *i), False, case)
        binding = tuple(range(1, case.graph.m + 1))
        text = ",".join(f"{v}={n}" for v, n in zip(case.graph.ids, binding))
        yield workloads.Op("openbook_n", ("openbook", *i, "--n", text), False, case, binding)
    yield workloads.Op("sweep", ("family", "--sweep", "4..15"), False, None, (4, 15))
    yield workloads.Op("surgery", ("surgery", "--chi", "100", "--sigma", "-20", "--N", "5"),
                       False, None, (100, -20, 5))


def test_checks_accept_real_reports_in_both_formats(cases):
    for op in op_cases(cases):
        text, js = report(op.argv, False), report(op.argv, True)
        assert text == js, op.argv
        checks.check(op, text)


def test_each_check_rejects_one_changed_number(cases):
    for op in op_cases(cases):
        good = report(op.argv, True)
        paths = list(numeric_paths(good))
        assert paths
        for path in paths:
            with pytest.raises(checks.CheckError):
                checks.check(op, changed(good, path))


def test_checks_reject_flipped_flags_and_hash(cases):
    op = next(o for o in op_cases(cases) if o.kind == "openbook")
    good = report(op.argv, True)
    for path, edit in ((("gluing verified",), lambda x: False),
                       (("certificate", "verdict"), lambda x: False),
                       (("certificate", "graph sha256"), lambda x: "0" * 64)):
        with pytest.raises(checks.CheckError):
            checks.check(op, changed(good, path, edit))


def test_text_parser_reads_nested_blocks():
    text = "a: (1, -2/3, (4, x))\nb:\n  -\n    c: yes\n  -\n    c: no\nd:\n  e: word s\n"
    assert checks.parse(text, False) == {"a": [1, Fraction(-2, 3), [4, "x"]],
                                         "b": [{"c": True}, {"c": False}],
                                         "d": {"e": "word s"}}
    with pytest.raises(checks.CheckError):
        checks.parse("{", True)
    with pytest.raises(checks.CheckError):
        checks.parse("a: 1\nb\n", False)


# --- tracer ------------------------------------------------------------------

def traced_counts(argv):
    tracer = Tracer()
    original = cli.main
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert sys.modules["plumbook.cli"].main(list(argv)) == 0
    finally:
        tracer.uninstall()
    assert sys.modules["plumbook.cli"].main is original
    return tracer, {key: v["value"] for key, v in tracer.metrics(1).items()}


def test_tracer_reproduces_known_call_counts(cases):
    path = cases[0].path
    _, counts = traced_counts(["openbook", "-i", path])
    assert counts["graph.validate.calls"] == 4
    assert counts["openbook.verify_gluing.calls"] == 3
    _, counts = traced_counts(["divisor", "-i", path])
    assert counts["canonical.canonical_cycle.calls"] == 2
    assert counts["divisor.minimal_openbook_divisor.calls"] == 1
    # Sylvester's test: one determinant per leading minor
    _, counts = traced_counts(["canonical", "-i", path])
    assert counts["rational.determinant.calls"] == 2
    assert counts["rational.solve.calls"] == 1


def test_tracer_spans_nest_and_self_times_add_up(cases):
    tracer, metrics = traced_counts(["openbook", "-i", cases[1].path])
    spans = {s.span: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.parent == -1]
    assert [(s.layer, s.name) for s in roots] == [("cli", "main")]
    for s in tracer.spans:
        assert 0 <= s.self_ns <= s.end_ns - s.start_ns
        if s.parent != -1:
            parent = spans[s.parent]
            assert parent.start_ns <= s.start_ns <= s.end_ns <= parent.end_ns
    total = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS)
    root = roots[0]
    assert total == pytest.approx((root.end_ns - root.start_ns) / 1e6)


def test_tracer_reports_zero_for_missing_names():
    metrics = Tracer().metrics(1)
    assert len(metrics) == 2 * len(LAYERS) + len(COUNTED)
    assert all(v["value"] == 0 for v in metrics.values())


# --- inputs ------------------------------------------------------------------

def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 3, str(tmp_path / "a"))
        b = workloads.build(workload, 3, str(tmp_path / "b"))
        c = workloads.build(workload, 4, str(tmp_path / "c"))
        texts = lambda rounds: [oracles.graph_text(op.case.graph) if op.case else op.argv
                                for ops in rounds for op in ops]
        assert texts(a) == texts(b) != texts(c)
        # every round has the same kinds, so call counts per round are equal
        assert len({tuple(sorted(op.kind for op in ops)) for ops in a}) == 1


def test_family_pool_holds_every_member_once(tmp_path):
    rounds = workloads.build("family_smoothing", 5, str(tmp_path))
    members = [-op.case.graph.euler[0] for ops in rounds for op in ops
               if op.kind == "divisor"]
    valid = [N for lo, hi in workloads.FAMILY_BINS for N in range(lo, hi + 1)
             if oracles.family_valid(N)]
    # divisor in both formats for each member: the same multiset for every seed
    assert sorted(members) == sorted(valid * 2)


def test_a_run_of_failures_reports_whole_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    monkeypatch.setattr(worker, "interpreter_start", lambda: 0.1)
    assert worker.main(["family_smoothing", "1", "0.2", "0", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    pool = result["pool"]
    assert result["attempted"] == result["failed"] == pool * result["passes"] > 0
    assert set(result["metrics"]) == {"peak_rss_mb", "setup_s"}


def test_times_are_scaled_to_the_reference_speed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    monkeypatch.setattr(worker, "interpreter_start", lambda: 0.2)
    # the calibration loop runs at half the reference speed, so times halve
    monkeypatch.setattr(worker, "calibration", lambda: 2 * worker.CAL_REF_S)
    assert worker.main(["family_smoothing", "1", "0.2", "0", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.1)
