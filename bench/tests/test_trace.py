"""Traced runs of every workload at a tiny size.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_N = {"verify-n5": 4, "u-default-n8": 5, "ham-cycles-n14": 6}


@pytest.fixture(scope="module")
def traced():
    """Result of one traced run per workload, each op a tiny digraph."""
    return {
        name: bench.run(dataclasses.replace(WORKLOADS[name], n=n), seed=5, seconds=0.01, trace=True)
        for name, n in TINY_N.items()
    }


@pytest.mark.parametrize("name", sorted(TINY_N))
def test_traced_run_is_correct_and_reports_every_layer_metric(traced, name):
    result = traced[name]
    assert result["correct"] and result["failed"] == 0, result["failures"]
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = [m["name"] for m in json.load(fh)["per_layer"]]
    assert not [m for m in wanted if m not in result["metrics"]]


@pytest.mark.parametrize("name", sorted(TINY_N))
def test_named_layers_record_calls(traced, name):
    metrics = traced[name]["metrics"]
    silent = [span for span in WORKLOADS[name].layers if not metrics[f"{span}.calls"] > 0]
    assert not silent


def test_ham_cycles_never_calls_symfun(traced):
    metrics = traced["ham-cycles-n14"]["metrics"]
    assert metrics["symfun.calls"] == 0
    assert metrics["symfun.SymFun.constructed"] == 0


def test_u_default_never_calls_det_ring(traced):
    metrics = traced["u-default-n8"]["metrics"]
    assert metrics["ringmat.det_ring.calls"] == 0
    assert 0 < metrics["digraph.perms_with_cycles_in_either.yield_ratio"] <= 1


def test_verify_counts_identities_and_routes(traced):
    metrics = traced["verify-n5"]["metrics"]
    assert metrics["cli.identities_checked"] >= 8
    assert metrics["redei.routes_per_digraph"] >= 7


def test_uninstall_restores_every_namespace():
    pkg = bench.import_package()
    hamilton, ringmat = pkg.hamilton, pkg.ringmat
    before = hamilton.principal_permanents
    tracer = Tracer()
    tracer.install()
    assert hamilton.principal_permanents is not before
    assert ringmat.principal_permanents is hamilton.principal_permanents
    tracer.uninstall()
    assert hamilton.principal_permanents is before
    assert ringmat.principal_permanents is before


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.active = True
    tracer.call("a.outer", lambda: tracer.call("b.inner", sum, range(10**5)))
    summary = tracer.summary()
    outer, inner = summary["a.outer"], summary["b.inner"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["busy_s"] - inner["busy_s"])
