#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

    python3 perfbench/tests/test_perfbench.py            # all
    python3 perfbench/tests/test_perfbench.py Contract   # no build, no runs

Contract: BENCHMARK.json meets the benchmark contract and agrees with
perfbench/metrics.json, which documents every metric and workload.

Attribution: a pass-through core::FaultInjector that spins a fixed time in
on_avail_update during a traced live_loopback run must raise the core
layer's row (core.hooks_ns, self.core_ns_per_req) and no other layer's.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class Contract(unittest.TestCase):
    def setUp(self):
        self.path = os.path.join(ROOT, "BENCHMARK.json")
        self.bench = load(self.path)
        self.docs = load(os.path.join(PERFBENCH, "metrics.json"))

    def test_shape(self):
        b = self.bench
        self.assertLessEqual(os.path.getsize(self.path), 64 * 1024)
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
            if "/" in arg:
                self.assertTrue(any(arg.startswith(p + "/") for p in b["paths"]),
                                arg)
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)

    def test_names_and_units(self):
        b = self.bench
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_setup_metric(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_metrics_documented(self):
        docs = self.docs["metrics"]
        listed = {}
        for kind in ("end_to_end", "per_layer"):
            for m in self.bench[kind]:
                listed[m["name"]] = m
                d = docs.get(m["name"])
                self.assertIsNotNone(d, "undocumented metric " + m["name"])
                self.assertEqual((d["kind"], d["unit"], d["better"]),
                                 (kind, m["unit"], m["better"]), m["name"])
        gated = {name for name, d in docs.items() if d["gated"]}
        self.assertEqual(gated, set(listed),
                         "metrics.json and BENCHMARK.json list different metrics")
        # A metric outside BENCHMARK.json is one only the ungated
        # live_loopback workload measures.
        ungated = {n for n, w in self.docs["workloads"].items() if not w["gated"]}
        for name in set(docs) - gated:
            for move in docs[name].get("moves", []):
                self.assertTrue(set(move["workloads"]) <= ungated, name)
        workloads = set(self.docs["workloads"])
        for name, d in docs.items():
            self.assertTrue(d["meaning"] and d["layer"], name)
            for move in d.get("moves", []):
                self.assertIn(move["metric"], docs, name)
                self.assertTrue(set(move["workloads"]) <= workloads, name)

    def test_workloads_documented(self):
        gated = {n for n, w in self.docs["workloads"].items() if w["gated"]}
        self.assertEqual(gated, {w["name"] for w in self.bench["workloads"]})
        for name, w in self.docs["workloads"].items():
            self.assertTrue(w["why"], name)
            if not w["gated"]:
                self.assertTrue(w["why_ungated"], name)
            for alias, src in w["aliases"].items():
                self.assertIn(src, self.docs["metrics"], alias)


def traced_live_run(spin_ns, seconds=8):
    cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"),
           "--workload", "live_loopback", "--seed", "7",
           "--seconds", str(seconds), "--trace", "1"]
    if spin_ns:
        cmd += ["--plant-spin-ns", str(spin_ns)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=900).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


class Attribution(unittest.TestCase):
    """A busy loop planted in one layer shows in that layer's row only."""

    SPIN_NS = 100_000

    def test_planted_spin_lands_in_core_only(self):
        base = traced_live_run(0)
        spun = traced_live_run(self.SPIN_NS)
        # The hook mean must rise by a large share of the spin itself (one
        # of the hooks per loop iteration carries it).
        self.assertGreater(spun["core.hooks_ns"] - base["core.hooks_ns"],
                           self.SPIN_NS / 10)
        planted = spun["self.core_ns_per_req"] - base["self.core_ns_per_req"]
        self.assertGreater(planted, self.SPIN_NS)
        for layer in ("gen", "sim", "bpf", "http", "shm"):
            row = "self.%s_ns_per_req" % layer
            rise = spun[row] - base[row]
            self.assertLess(rise, 0.25 * planted,
                            "%s rose %.0f ns/req with %.0f ns/req planted in "
                            "core" % (row, rise, planted))


if __name__ == "__main__":
    unittest.main()
