"""Run one skeinlab command in this fresh interpreter, counting
trace-relation evaluations and, with --trace, recording layer spans.

    python3 perfbench/cli_child.py REPORT.json [--trace] -- ARGS...

ARGS are the `skeinlab` command line.  The command's output goes to
stdout as usual; the report (exit code, `chvar.fricke_f` evaluations,
and with --trace the per-layer figures) is written to REPORT.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skeinlab import chvar, cli, skein  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    report_path = Path(sys.argv[1])
    trace = sys.argv[2] == "--trace"
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = Tracer()
    if trace:
        tracer.install()
    else:
        original = chvar.fricke_f

        def counted(*args):
            tracer.counts["chvar.fricke_evals"] += 1
            return original(*args)

        chvar.fricke_f = counted
    code = cli.main(argv)
    sys.stdout.flush()
    info = skein._basis_product.cache_info()
    tracer.counts["skein.product_cache_hits"] += info.hits
    tracer.counts["skein.product_cache_misses"] += info.misses
    report = {"exit": code, "fricke_evals": tracer.counts["chvar.fricke_evals"]}
    if trace:
        report["layers"] = tracer.layer_metrics()
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
