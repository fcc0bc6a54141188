"""Seeded inputs for the three workloads.

A workload's pool is a fixed list of rounds.  A round is a short list of
operations, each an argv for `plumbook.cli.main` plus what the check needs
to know about its input.  Every round of a workload has the same sizes and
the same operation kinds, so per-round call counts are the same whatever
the seed.  A run does whole passes over the pool, so it weights every
input equally however many passes its speed allows.  The pool is sized so
that today's program completes one pass in a 30-second run.

Four fifths of a round's operations are divisor and openbook, the
expensive class; the rest are cheap (check, canonical, openbook --n,
family --sweep, surgery).  So the median and the 75th percentile lie
inside the expensive class, not at its edge where they would jump between
runs.  A random or Hirzebruch-Jung graph gets one operation, so a pass
samples as many graphs as it has operations.
"""

from __future__ import annotations

import os
import random
from typing import NamedTuple

import oracles
from oracles import Graph

WORKLOADS = ("random_plumbing", "family_smoothing", "hj_trees")

RANDOM_M = 20                # vertices of each random plumbing
RANDOM_EULER = (-7, -2)      # Euler number range
RANDOM_GENUS = (0, 2)        # genus range
RANDOM_BINDING = (1, 9)      # entry range of the explicit `--n` vector
RANDOM_MAX_RAISES = 500      # most unit raises of the divisor search; 7% of graphs
                             # need more, up to 60,000: long searches are family_smoothing's
HJ_M = 24                    # vertices of each chain and each star
HJ_WEIGHT = (2, 300)         # |e| range of chain and leg entries
HJ_CENTRE = (3, 300)         # |e| range of the star's centre
FAMILY_BINS = ((32, 43), (44, 55))   # one member N from each bin per round;
                                     # each bin holds 8 members with 3 not dividing N-1
SWEEP_LENGTH = 12            # members per `family --sweep`; a multiple of 3
POOL_ROUNDS = {"random_plumbing": 6,    # 90 operations on 90 graphs
               "family_smoothing": 8,   # 80 operations, every member of both bins once
               "hj_trees": 10}          # 100 operations on 100 graphs


class Case(NamedTuple):
    """One input graph with everything the checks compare against."""
    graph: Graph
    path: str
    determinant: int
    divisor: tuple[int, ...]


class Op(NamedTuple):
    kind: str              # check, canonical, divisor, openbook, openbook_n, sweep, surgery
    argv: tuple[str, ...]
    json: bool
    case: Case | None = None
    extra: tuple = ()      # binding for openbook_n, (lo, hi) for sweep, (chi, sigma, N)


def _case(graph: Graph, path: str, determinant: int | None = None) -> Case:
    if not (oracles.is_connected(graph) and oracles.is_negative_definite(graph)):
        raise ValueError(f"generated graph {path} is not a valid plumbing")
    bareiss = oracles.leading_minors(oracles.matrix(graph))[-1]
    if determinant is not None and determinant != bareiss:
        raise ValueError(f"closed-form determinant of {path} disagrees with Bareiss")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(oracles.graph_text(graph))
    divisor, _ = oracles.least_divisor(graph)
    return Case(graph, path, bareiss, tuple(divisor))


def _flag(argv: list[str], json: bool) -> tuple[str, ...]:
    return tuple(argv + ["--json"]) if json else tuple(argv)


def _op(case: Case, kind: str, json: bool, binding=()) -> Op:
    """One operation on a graph; openbook_n gets the explicit binding vector."""
    if kind == "openbook_n":
        text = ",".join(f"{v}={n}" for v, n in zip(case.graph.ids, binding))
        argv = ["openbook", "-i", case.path, "--n", text]
        return Op(kind, _flag(argv, json), json, case, tuple(binding))
    return Op(kind, _flag([kind, "-i", case.path], json), json, case)


def random_plumbing(rng: random.Random) -> Graph:
    """A tree plus floor(m/5) extra edges, kept if the Bareiss test finds it
    negative definite and its least divisor lies at most RANDOM_MAX_RAISES
    unit raises above (1, ..., 1), so that the linear algebra, not the
    divisor search, does the work."""
    m = RANDOM_M
    while True:
        edges = {(rng.randrange(v), v) for v in range(1, m)}
        while len(edges) < m - 1 + m // 5:
            i, j = sorted(rng.sample(range(m), 2))
            edges.add((i, j))
        graph = oracles.make_graph([rng.randint(*RANDOM_EULER) for _ in range(m)],
                                   [rng.randint(*RANDOM_GENUS) for _ in range(m)],
                                   edges)
        if (oracles.is_negative_definite(graph)
                and sum(oracles.least_divisor(graph)[0]) - m <= RANDOM_MAX_RAISES):
            return graph


def hj_chain(rng: random.Random) -> tuple[Graph, int]:
    a = [rng.randint(*HJ_WEIGHT) for _ in range(HJ_M)]
    graph = oracles.make_graph([-x for x in a], [0] * HJ_M,
                               [(i, i + 1) for i in range(HJ_M - 1)], prefix="c")
    return graph, oracles.chain_determinant(a)


def hj_star(rng: random.Random) -> tuple[Graph, int]:
    """Centre of genus 0-2 and three legs of random lengths summing to m-1."""
    cut = sorted(rng.sample(range(1, HJ_M - 1), 2))
    lengths = (cut[0], cut[1] - cut[0], HJ_M - 1 - cut[1])
    b = rng.randint(*HJ_CENTRE)
    legs = [[rng.randint(*HJ_WEIGHT) for _ in range(n)] for n in lengths]
    euler, edges = [-b], []
    for leg in legs:
        previous = 0
        for x in leg:
            euler.append(-x)
            edges.append((previous, len(euler) - 1))
            previous = len(euler) - 1
    graph = oracles.make_graph(euler, [rng.randint(0, 2)] + [0] * (HJ_M - 1), edges,
                               prefix="s")
    return graph, oracles.star_determinant(b, legs)


def build(workload: str, seed: int, directory: str) -> list[list[Op]]:
    """The rounds of the workload's pool for this seed; graph files go to
    `directory`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    path = lambda name: os.path.join(directory, name + ".pg")
    rounds: list[list[Op]] = []
    if workload == "random_plumbing":
        light = ("check", "canonical", "openbook_n")
        for r in range(POOL_ROUNDS[workload]):
            ops = []
            for k in range(15):
                case = _case(random_plumbing(rng), path(f"g{r:02d}{k:02d}"))
                json = (k // 2 + r) % 2 == 1
                if k < 12:
                    ops.append(_op(case, ("divisor", "openbook")[k % 2], json))
                else:
                    binding = [rng.randint(*RANDOM_BINDING) for _ in range(RANDOM_M)]
                    ops.append(_op(case, light[k - 12], json, binding))
            rounds.append(ops)
    elif workload == "hj_trees":
        for r in range(POOL_ROUNDS[workload]):
            ops = []
            for k in range(10):
                make = (hj_chain, hj_star)[k % 2]
                graph, det = make(rng)
                case = _case(graph, path(f"{make.__name__}{r:02d}{k}"), det)
                if k < 8:
                    ops.append(_op(case, ("divisor", "openbook")[k // 2 % 2],
                                   (k // 4 + r) % 2 == 1))
                else:
                    ops.append(_op(case, ("check", "canonical")[(k + r) % 2], r % 2 == 1))
            rounds.append(ops)
    else:
        members = []
        for lo, hi in FAMILY_BINS:
            ns = [n for n in range(lo, hi + 1) if oracles.family_valid(n)]
            rng.shuffle(ns)
            assert len(ns) == POOL_ROUNDS[workload]
            members.append(ns)
        for r in range(POOL_ROUNDS[workload]):
            ops = []
            for b, ns in enumerate(members):
                N = ns[r]
                case = _case(oracles.family_graph(N), path(f"family{N}"))
                ops += [_op(case, kind, json) for kind, json in (
                    ("divisor", False), ("openbook", True), ("divisor", True), ("openbook", False))]
                json = (r + b) % 2 == 1
                if b == 0:
                    lo = rng.randint(3, 150)
                    hi = lo + SWEEP_LENGTH - 1
                    ops.append(Op("sweep", _flag(["family", "--sweep", f"{lo}..{hi}"], json),
                                  json, None, (lo, hi)))
                else:
                    chi, sigma = rng.randint(3, 300), rng.randint(-200, 0)
                    ops.append(Op("surgery", _flag(["surgery", "--chi", str(chi), "--sigma",
                                                    str(sigma), "--N", str(N)], json),
                                  json, None, (chi, sigma, N)))
            rounds.append(ops)
    return rounds

