#!/usr/bin/env python3
"""CI validator for decision-trace JSONL dumps.

Reads the stdout of `reputation_server --trace-dump` (or any file of
obs::to_jsonl lines, possibly interleaved with other output), checks
every decision record against the schema documented in
docs/observability.md, and fails loudly on drift:

  * required keys present with the right types and sane values
    (distances finite and within the L1 range, p-hat a probability,
    windows consistent with the suffix length);
  * a line that starts like a record (`{"trace_id"`) but is not valid
    JSON — e.g. a non-finite double printed as `inf` — is an error, not
    skipped output;
  * no unknown top-level keys — the emitter and the docs must move
    together;
  * epsilon consistent with the calibration grid: within one record two
    stages that quantize to the same calibrator key (windows, m, p-hat
    bucket) must report the identical threshold.  (The scope is one
    record because the Bonferroni correction gives every ladder its own
    per-stage confidence; within a ladder it is constant.);
  * optionally (--expect-server N) at least one record flags entity N
    with failing-stage evidence, which is what the demo workload
    promises.

Exit status: 0 on success, 1 on any validation failure, 2 on usage
errors.  Dependency-free (stdlib json only).
"""

import argparse
import json
import math
import sys

# Must mirror stats::CalibratorConfig::p_grid and Calibrator::make_key.
P_GRID = 256

REQUIRED_KEYS = {
    "trace_id": int,
    "source": str,
    "server": int,
    "wall_time": float,
    "verdict": str,
    "mode": str,
    "collusion_resilient": bool,
    "window_size": int,
    "history_length": int,
    "p_hat": float,
    "min_margin": float,
    "stages": list,
    "spans": list,
}
OPTIONAL_KEYS = {"transition", "trust", "failed", "reorder", "runs"}

STAGE_KEYS = {
    "suffix_length": int,
    "windows": int,
    "p_hat": float,
    "distance": float,
    "epsilon": float,
    "sufficient": bool,
    "passed": bool,
}

SOURCES = {"two_phase", "online_screener"}
VERDICTS = {"suspicious", "assessed", "insufficient-history", "clear", "insufficient"}
MODES = {"none", "single", "multi"}
TRANSITIONS = {"flagged", "recovered"}
SPAN_NAMES = {
    "phase1/screen", "phase1/ladder", "phase1/stage", "phase1/runs",
    "reorder", "phase2/trust", "calibrate/compute",
}


def p_bucket(p_hat: float) -> int:
    """stats::Calibrator::make_key's p-hat quantization."""
    bucket = round(p_hat * P_GRID)
    if bucket == 0 and p_hat > 0.0:
        bucket = 1
    if bucket == P_GRID and p_hat < 1.0:
        bucket = P_GRID - 1
    return bucket


class Validator:
    def __init__(self):
        self.errors = []
        self.grid_keys = set()  # distinct calibration keys, for the summary

    def error(self, line_no, message):
        self.errors.append(f"line {line_no}: {message}")

    def check_typed(self, line_no, obj, keys, what):
        ok = True
        for key, kind in keys.items():
            if key not in obj:
                self.error(line_no, f"{what} missing required key '{key}'")
                ok = False
                continue
            value = obj[key]
            if kind is float:
                good = isinstance(value, (int, float)) and not isinstance(value, bool)
            elif kind is int:
                good = isinstance(value, int) and not isinstance(value, bool)
            else:
                good = isinstance(value, kind)
            if not good:
                self.error(line_no, f"{what} key '{key}' has type "
                                    f"{type(value).__name__}, wanted {kind.__name__}")
                ok = False
        return ok

    def check_stage(self, line_no, stage, what, window_size, grid):
        if not isinstance(stage, dict):
            self.error(line_no, f"{what} is not an object")
            return
        if not self.check_typed(line_no, stage, STAGE_KEYS, what):
            return
        unknown = set(stage) - set(STAGE_KEYS)
        if unknown:
            self.error(line_no, f"{what} has unknown keys {sorted(unknown)}")
        for key in ("p_hat", "distance", "epsilon"):
            if not math.isfinite(stage[key]):
                self.error(line_no, f"{what} {key} is not finite")
                return
        if not 0.0 <= stage["p_hat"] <= 1.0:
            self.error(line_no, f"{what} p_hat {stage['p_hat']} outside [0, 1]")
        # L1 distance between two probability distributions is in [0, 2].
        if not 0.0 <= stage["distance"] <= 2.0:
            self.error(line_no, f"{what} distance {stage['distance']} outside [0, 2]")
        if not 0.0 <= stage["epsilon"] <= 2.0:
            self.error(line_no, f"{what} epsilon {stage['epsilon']} outside [0, 2]")
        if window_size > 0 and stage["windows"] != stage["suffix_length"] // window_size:
            self.error(line_no, f"{what} windows {stage['windows']} inconsistent with "
                                f"suffix_length {stage['suffix_length']} and m {window_size}")
        if not stage["sufficient"] and not stage["passed"]:
            self.error(line_no, f"{what} failed despite insufficient evidence")
        # Calibration-grid consistency: stages of ONE record quantizing
        # to the same calibrator key ran at the same confidence, so they
        # must see the identical (bitwise) threshold.
        if stage["sufficient"]:
            key = (window_size, stage["windows"], p_bucket(stage["p_hat"]))
            self.grid_keys.add(key)
            seen = grid.get(key)
            if seen is None:
                grid[key] = (stage["epsilon"], what)
            elif seen[0] != stage["epsilon"]:
                self.error(line_no, f"{what} epsilon {stage['epsilon']} disagrees with "
                                    f"{seen[1]} ({seen[0]}) for calibration key "
                                    f"(m={key[0]}, windows={key[1]}, bucket={key[2]})")

    def check_record(self, line_no, record):
        if not self.check_typed(line_no, record, REQUIRED_KEYS, "record"):
            return
        unknown = set(record) - set(REQUIRED_KEYS) - OPTIONAL_KEYS
        if unknown:
            self.error(line_no, f"record has unknown keys {sorted(unknown)} "
                                f"(schema drift — update docs/observability.md "
                                f"and this validator together)")
        if record["trace_id"] < 1:
            self.error(line_no, "trace_id must be >= 1")
        if record["source"] not in SOURCES:
            self.error(line_no, f"unknown source '{record['source']}'")
        if record["verdict"] not in VERDICTS:
            self.error(line_no, f"unknown verdict '{record['verdict']}'")
        if record["mode"] not in MODES:
            self.error(line_no, f"unknown mode '{record['mode']}'")
        if not math.isfinite(record["wall_time"]) or record["wall_time"] <= 0:
            self.error(line_no, "wall_time must be a positive epoch timestamp")
        if not math.isfinite(record["min_margin"]):
            self.error(line_no, "min_margin is not finite")
        if not 0.0 <= record["p_hat"] <= 1.0:
            self.error(line_no, f"p_hat {record['p_hat']} outside [0, 1]")
        if "transition" in record and record["transition"] not in TRANSITIONS:
            self.error(line_no, f"unknown transition '{record['transition']}'")
        if "trust" in record:
            trust = record["trust"]
            if not isinstance(trust, (int, float)) or not 0.0 <= trust <= 1.0:
                self.error(line_no, f"trust {trust} outside [0, 1]")

        m = record["window_size"]
        grid = {}
        for i, stage in enumerate(record["stages"]):
            self.check_stage(line_no, stage, f"stages[{i}]", m, grid)
        lengths = [s.get("suffix_length", 0) for s in record["stages"]
                   if isinstance(s, dict)]
        if lengths != sorted(lengths):
            self.error(line_no, "stages are not ordered shortest suffix first")

        if "failed" in record:
            self.check_stage(line_no, record["failed"], "failed", m, grid)
            failed = record["failed"]
            if isinstance(failed, dict) and set(STAGE_KEYS) <= set(failed):
                if failed["passed"]:
                    self.error(line_no, "failed stage claims passed=true")
                if not failed["distance"] > failed["epsilon"]:
                    self.error(line_no, f"failed stage distance {failed['distance']} "
                                        f"does not exceed epsilon {failed['epsilon']}")

        if "reorder" in record:
            self.check_typed(line_no, record["reorder"],
                             {"issuers": int, "largest_group": int,
                              "displaced_fraction": float}, "reorder")
        if "runs" in record:
            self.check_typed(line_no, record["runs"],
                             {"passed": bool, "z": float, "z_threshold": float},
                             "runs")

        for i, span in enumerate(record["spans"]):
            what = f"spans[{i}]"
            if not self.check_typed(line_no, span,
                                    {"name": str, "depth": int, "start": float,
                                     "duration": float}, what):
                continue
            if span["name"] not in SPAN_NAMES:
                self.error(line_no, f"{what} unknown span name '{span['name']}'")
            if span["depth"] < 0 or span["start"] < 0 or span["duration"] < 0:
                self.error(line_no, f"{what} has negative depth/start/duration")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="trace dump (JSONL, other lines skipped)")
    parser.add_argument("--expect-server", type=int, default=None,
                        help="require a suspicious record with failing-stage "
                             "evidence for this entity")
    args = parser.parse_args()

    validator = Validator()
    records = 0
    expected_seen = False
    try:
        with open(args.path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    # obs::to_jsonl opens every record with its trace_id;
                    # other unparseable lines are the workload's own output.
                    if line.startswith('{"trace_id"'):
                        records += 1
                        validator.error(line_no, f"decision record is not valid JSON ({exc})")
                    continue
                if not isinstance(obj, dict) or "trace_id" not in obj:
                    continue
                records += 1
                validator.check_record(line_no, obj)
                if (args.expect_server is not None
                        and obj.get("server") == args.expect_server
                        and obj.get("verdict") == "suspicious"
                        and "failed" in obj):
                    expected_seen = True
    except OSError as exc:
        print(f"validate_traces: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2

    if records == 0:
        validator.errors.append("no decision records found in the dump")
    if args.expect_server is not None and not expected_seen:
        validator.errors.append(
            f"no suspicious record with failing-stage evidence for "
            f"server {args.expect_server}")

    for message in validator.errors:
        print(f"validate_traces: {message}", file=sys.stderr)
    if validator.errors:
        print(f"validate_traces: FAILED ({len(validator.errors)} problem(s) "
              f"across {records} records)", file=sys.stderr)
        return 1
    print(f"validate_traces: OK ({records} records, "
          f"{len(validator.grid_keys)} calibration keys)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
