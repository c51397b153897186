"""The benchmark's own tests (under a minute, standard library only).

    python3 perfbench/selftest.py

* the negative control: an oracle fed a known-bad result (the unscaled
  classifier family over divisors(360), whose naturality squares fail) makes
  the recorder count a failed operation, so ``ops_failed`` can see one;
* after the spans are installed, no cycrep namespace still holds an
  unwrapped entry point;
* a traced pass of every workload passes its oracles and records nonzero
  ``calls`` on every span the workload is predicted to move;
* BENCHMARK.json lists exactly the workloads and per-layer metrics that the
  code produces.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def naturality_oracle(report) -> str | None:
    bad = [f"{s.source}->{s.target}" for s in report.squares if not s.natural]
    return f"failing squares {bad}" if bad else None


class NegativeControl(unittest.TestCase):
    def test_unscaled_family_is_counted_as_failed(self):
        import cycrep
        support = cycrep.support_of_divisors(360)
        rec = workloads.Recorder()
        rec.op("classifier_report(scaled)",
               lambda: cycrep.classifier_report(cycrep.assemble(support)),
               naturality_oracle)
        self.assertEqual(rec.failures, [])
        rec.op("classifier_report(unscaled)",
               lambda: cycrep.classifier_report(cycrep.unscaled_family(support)),
               naturality_oracle)
        self.assertEqual(rec.attempted, 2)
        self.assertEqual(len(rec.failures), 1)
        self.assertIn("failing squares", rec.failures[0])

    def test_raising_operation_is_counted_as_failed(self):
        rec = workloads.Recorder()
        rec.op("raises", lambda: 1 // 0, lambda _: None)
        self.assertEqual((rec.attempted, len(rec.failures)), (1, 1))


class SpanInstall(unittest.TestCase):
    def test_every_alias_is_wrapped(self):
        # in a fresh interpreter, so this process keeps the plain functions
        code = ("import sys; sys.path[:0] = [%r, %r]; import spans; "
                "spans.install(spans.Tracer()); print(spans.unwrapped_aliases())"
                % (str(HERE), str(ROOT / "src")))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True)
        self.assertEqual(out.stdout.strip(), "[]")


class TracedPasses(unittest.TestCase):
    def test_predicted_spans_record_calls(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                out = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), "--workload", name,
                     "--seed", "1", "--trace", "1"],
                    capture_output=True, text=True, timeout=300, check=True)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(result["failures"], [])
                silent = [s for s in wl.spans if not result["spans"][f"{s}.calls"]]
                self.assertEqual(silent, [])


class BenchmarkFile(unittest.TestCase):
    def test_names_match_the_code(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.per_layer_specs())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)


if __name__ == "__main__":
    unittest.main(verbosity=2)
