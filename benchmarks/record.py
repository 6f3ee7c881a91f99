"""Run every workload untraced and traced, print each metric by name and
unit, and write the record to a JSON file.

    python3 benchmarks/record.py --seed 1 --out benchmarks/baseline.json

Each workload runs in its own processes through ``run.py``.  The record
also holds the traced runs' layer shares (a layer's busy time over the
request time) and three single-request probes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SHARES = ("linalg.smith_normal_form", "linalg.f2_homology", "linalg.UMatrix.apply",
          "pairing.box_tensor", "pairing.match_family", "structures.lookup",
          "structures.morphism_space", "cfk.build_cfd")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probes() -> dict:
    """Single requests sized as in the ROADMAP's rough figures."""
    import workloads as W
    from diskfloer import library, pipeline

    def timed(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    wh = W.long_box_model(((1, 1),) * 12, "p")
    st = W.long_box_model(((1, 1),) * 8, "p")
    cable = library.cfa_cable_p1(8)
    return {
        "distinguish_whitehead_12_boxes_s": timed(lambda: pipeline.distinguish(
            library.cfa_whitehead(), wh.cfk, wh.morphism, wh.bases)),
        "stab_bound_p4_8_boxes_s": timed(lambda: pipeline.stab_bound(
            4, st.cfk, st.morphism, st.bases)),
        "validate_cable_p8_s": timed(cable.validate),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    import workloads as W

    record = {
        "machine": {"cpu": _cpu(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "seed": args.seed, "seconds": args.seconds, "workloads": {},
    }
    ok = True
    for workload in W.WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        shares = {name: layers[f"{name}.busy_s"] / layers["trace.request_s"]
                  for name in SHARES}
        record["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"],
            "shares": shares,
        }
        ok &= plain["correct"] and traced["correct"]
        print(f"{workload}: correct={plain['correct'] and traced['correct']} "
              f"failed={plain['failed']} of {plain['attempted']}")
        for name, m in plain["metrics"].items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
        print(f"  trace.overhead_req_per_s {layers['trace.overhead_req_per_s']:.6g} 1/s")
        top = max(shares, key=shares.get)
        print(f"  largest share: {top} {shares[top]:.3f}")
    record["probes"] = probes()
    for name, value in record["probes"].items():
        print(f"probe {name} {value:.4g}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
