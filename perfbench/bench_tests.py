"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest -q perfbench/bench_tests.py``
(the file name keeps them out of the library's own test collection).
"""

import sys
import types

import pytest

import run

run.prepare_environment()

import bench  # noqa: E402  (needs the environment prepared above)
from reference import NOMINAL_BLOCK_S, Reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import McTau  # noqa: E402

TOY_SOURCE = '''
def leaf(cost):
    tick(cost)


def pair(a, b):
    # Swaps its arguments by calling itself, like tau_a_curve's arm swap.
    if a > b:
        tick(1)
        return pair(b, a)
    tick(2)
    leaf(3)
    leaf(4)
    return a


def fails():
    tick(5)
    raise KeyError("boom")


class Box:
    def __call__(self):
        tick(6)


def top():
    tick(10)
    pair(2, 1)
    try:
        fails()
    except KeyError:
        pass
    Box()()
    tick(1)
'''


def _toy_package(clock):
    package = types.ModuleType("toypkg")
    module = types.ModuleType("toypkg.calc")
    module.tick = lambda cost: clock.__setitem__(0, clock[0] + cost)
    exec(compile(TOY_SOURCE, "toypkg/calc.py", "exec"), module.__dict__)
    return package, module


def test_self_times_on_nested_tree_with_self_recursion(monkeypatch):
    clock = [0]
    package, module = _toy_package(clock)
    monkeypatch.setitem(sys.modules, "toypkg", package)
    monkeypatch.setitem(sys.modules, "toypkg.calc", module)
    original_pair = module.pair
    tracer = Tracer(clock=lambda: clock[0])
    tracer.install("toypkg", methods=("calc.Box.__call__",))
    try:
        with tracer.span("root"):
            module.tick(1)
            module.top()
            module.tick(2)
    finally:
        tracer.uninstall()
    assert module.pair is original_pair

    # root 1+2 outside top; top 10+1 outside children; pair 1 (outer) + 2
    # (inner); leaf 3+4; fails 5; Box.__call__ 6.
    summary = tracer.summary()
    self_ns = {name: entry["self_ns"] for name, entry in summary.items()}
    assert self_ns == {"root": 3, "calc.top": 11, "calc.pair": 3, "calc.leaf": 7,
                       "calc.fails": 5, "calc.Box.__call__": 6}
    assert summary["calc.pair"]["calls"] == 2
    assert summary["calc.leaf"]["calls"] == 2
    assert summary["calc.fails"]["fail_by_class"] == {"KeyError": 1}
    assert summary["calc.top"]["fail"] == 0
    assert tracer.root_ns() == 35 == int(tracer.self_times().sum())
    assert tracer.nests()
    assert tracer.child_calls("calc.leaf", ("calc.pair",)) == 2
    assert tracer.child_calls("calc.pair", ("calc.pair",)) == 1


class ShortMcTau(McTau):
    boot = "20"


def test_traced_mc_tau_writes_the_untraced_bytes(tmp_path):
    workload = ShortMcTau(3, tmp_path)
    plain, _, problems = bench.closed_loop(workload, rounds=1)
    assert problems == []
    tracer = Tracer()
    tracer.install("curetau", bench.TRACED_METHODS)
    try:
        with tracer.span("bench.pass"):
            traced, _, problems = bench.closed_loop(workload, rounds=1, check=False)
    finally:
        tracer.uninstall()
    assert problems == []
    assert bench.digest_of(traced) == bench.digest_of(plain)
    summary = tracer.summary()
    assert summary["tau.tau_a_curve"]["calls"] > 0
    assert summary["tau.true_tau_quadrature"]["calls"] == 10
    assert int(tracer.self_times().sum()) == tracer.root_ns()


def test_reference_rescales_each_operation_by_its_neighbouring_chunks():
    reference = Reference()
    reference.chunks = [(NOMINAL_BLOCK_S, 1), (7 * NOMINAL_BLOCK_S, 3), (NOMINAL_BLOCK_S, 1)]
    # Blocks at twice the nominal time on average: the machine ran at half speed.
    assert reference.rescaled([4.0, 2.0]) == pytest.approx([2.0, 1.0])


def test_closed_loop_runs_a_reference_chunk_around_every_operation(tmp_path):
    workload = ShortMcTau(3, tmp_path)
    reference = Reference()
    rounds, _, problems = bench.closed_loop(workload, rounds=2, reference=reference)
    assert problems == []
    ops = [r for done in rounds for r in done]
    assert len(reference.chunks) == len(ops) + 1
    assert len(reference.rescaled([r.seconds for r in ops])) == len(ops)


def test_reference_chunk_grows_with_the_operation_before_it():
    reference = Reference()
    reference.chunk()
    reference.chunk(after_s=30 * NOMINAL_BLOCK_S)
    assert [blocks for _, blocks in reference.chunks] == [1, 3]
