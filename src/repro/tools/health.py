"""Health-gate CLI: declarative rules over KV runs / telemetry rollups.

``python -m repro.tools.health`` evaluates a rule set against any mix of:

- ``--kv DOC.json``            — a ``repro.bench.kv_bench`` document:
  one ``summarize_point`` dict (utilization + p50..p999 sojourn latency,
  availability fields of a crash point) or, recognized by its ``curve``
  key, a ``--sweep`` capacity curve (below-knee utilization rule); either
  way ``kv-coherence`` holds ``invals_sent <= sharers_registered``,
  ``kv-write-dwell`` compares write p50 with the aggregator's ``max_dwell``
  at every non-saturated point (WARN: writes are waiting out the timer)
  and ``kv-shard-skew`` prints the owner-side load imbalance (INFO);
- ``--telemetry TEL.json``     — a ``repro.util.Telemetry.as_dict`` dump
  (windowed rollups: attentiveness gap, retransmits, credit stalls);
- ``--rules RULES.json``       — extra declarative rules (see below).

Every rule prints one verdict line and the process exits non-zero when
any FAIL-severity rule is violated.  With ``--strict``, WARN-severity
violations fail too, and so does a run in which no rule applied at all
(an empty or renamed artifact must not read as healthy) — which is how
CI turns a green-looking run into a hard gate.

Declarative rule format (``--rules``)::

    [{"name": "kv-p99", "doc": "kv", "path": "p99_s",
      "op": "<=", "value": 200e-6, "severity": "fail"}]

``doc`` names the input the rule applies to (``kv`` / ``telemetry``);
``path`` is a dotted lookup into that JSON document.  A missing document
or path yields SKIP and a value that cannot be compared yields FAIL,
never a crash — a health check must say what is wrong with its input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

#: default ceilings for the built-in computed rules
DEFAULT_MIN_UTILIZATION = 0.9        # the kv knee efficiency
DEFAULT_MIN_AVAILABILITY = 0.99      # requests served under a crash plan
DEFAULT_MAX_GAP_S = 1e-3             # attentiveness ceiling (simulated)
DEFAULT_MAX_RETX_RATE = 0.05         # retransmits per NIC op
DEFAULT_MAX_STALL_FRAC = 0.5         # agg credit stall share of served time

#: ``kv-write-dwell``: write p50 over ``max_dwell`` below saturation — an
#: ack round trip is a small fraction of the timer, the timer itself is 1
WRITE_DWELL_PASS = 0.5
WRITE_DWELL_WARN = 1.0

_OPS = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class Verdict:
    """One evaluated rule plus a detail line.

    Statuses: PASS, FAIL (always fails the run), WARN (fails only under
    ``--strict``), INFO (never fails — a number worth printing that is
    not a statement about health, e.g. a crash point's utilization), SKIP
    (input or report section absent).
    """

    def __init__(self, name: str, status: str, detail: str, severity: str = "fail"):
        self.name = name
        self.status = status
        self.detail = detail
        self.severity = severity

    def line(self) -> str:
        return f"[{self.status:4s}] {self.name}: {self.detail}"

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "detail": self.detail, "severity": self.severity}


def _lookup(doc: Any, path: str) -> Any:
    """Dotted-path lookup (`a.b.0.c`); returns None when absent."""
    cur = doc
    for part in path.split("."):
        if isinstance(cur, dict):
            if part not in cur:
                return None
            cur = cur[part]
        elif isinstance(cur, list):
            try:
                cur = cur[int(part)]
            except (ValueError, IndexError):
                return None
        else:
            return None
    return cur


class _Incomparable(Exception):
    """A document value that a rule must compare is not a number."""

    def __init__(self, path: str, value: Any):
        super().__init__(path)
        self.path = path
        self.value = value


def _num(doc: dict, key: str, path: Optional[str] = None):
    """``doc[key]`` if it is a number, None if absent; anything else
    raises :class:`_Incomparable` naming ``path`` (default: ``key``)."""
    value = doc.get(key)
    if value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        return value
    raise _Incomparable(path or key, value)


def eval_rule(rule: dict, docs: Dict[str, Optional[dict]]) -> Verdict:
    """Evaluate one declarative rule against the loaded documents."""
    name = rule.get("name", rule.get("path", "rule"))
    severity = rule.get("severity", "fail")
    doc = docs.get(rule.get("doc", "kv"))
    if doc is None:
        return Verdict(name, "SKIP", f"no {rule.get('doc', 'kv')} document loaded", severity)
    value = _lookup(doc, rule["path"])
    if value is None:
        return Verdict(name, "SKIP", f"path {rule['path']!r} not present", severity)
    op = rule.get("op", "<=")
    fn = _OPS.get(op)
    if fn is None:
        return Verdict(name, "FAIL", f"unknown op {op!r}", severity)
    target = rule["value"]
    try:
        ok = bool(fn(value, target))
    except TypeError:
        return Verdict(name, "FAIL",
                       f"{rule['path']} = {value!r} cannot be compared with {target!r}", severity)
    status = "PASS" if ok else ("WARN" if severity == "warn" else "FAIL")
    return Verdict(name, status, f"{rule['path']} = {value!r} {op} {target!r}", severity)


# -------------------------------------------------------- built-in checks
def _check_kv_capacity(sweep: dict, min_util: float) -> List[Verdict]:
    """Below-knee points of a ``kv_bench --sweep`` curve must hold the
    knee efficiency."""
    knee = sweep.get("knee")
    knee_mult = _num(knee, "multiplier") if isinstance(knee, dict) else None
    bad = []
    for i, p in enumerate(sweep["curve"]):
        mult = _num(p, "multiplier", f"curve.{i}.multiplier")
        util = _num(p, "utilization", f"curve.{i}.utilization")
        if mult is None or util is None:
            return [Verdict("kv-capacity", "FAIL",
                            f"curve.{i} lacks multiplier/utilization")]
        if knee_mult is not None and mult >= knee_mult:
            continue  # at/above the knee saturation is expected
        if util < min_util:
            bad.append(mult)
    if bad:
        return [Verdict(
            "kv-capacity", "FAIL",
            f"below-knee points x{bad} under utilization floor {min_util}",
        )]
    desc = (f"knee at x{knee_mult}" if knee_mult is not None
            else "no knee found in sweep")
    return [Verdict(
        "kv-capacity", "PASS",
        f"below-knee utilization >= {min_util} ({desc}, capacity "
        f"{sweep.get('capacity_per_rank_rps')} req/s/rank)",
    )]


def _check_kv_point(kv: dict, min_util: float, p99_slo: Optional[float],
                    p999_slo: Optional[float]) -> List[Verdict]:
    out: List[Verdict] = []
    util = _num(kv, "utilization")
    is_crash = kv.get("crash_rank") is not None
    if util is not None:
        if is_crash:
            # a crash point's serving time includes failure detection,
            # recovery shipping, and the extended drain — utilization is
            # honest but not a capacity statement, so never gate on it
            out.append(Verdict(
                "kv-utilization", "INFO",
                f"crash point: utilization {util} is informational "
                "(serving time includes detection + recovery + drain)",
                "info",
            ))
        else:
            ok = util >= min_util
            detail = (f"achieved {kv.get('achieved_rps')}/{kv.get('offered_rps')} req/s, "
                      f"utilization {util} >= {min_util}")
            if not ok:
                detail += " — service is saturated (offered load above the knee)"
            out.append(Verdict("kv-utilization", "PASS" if ok else "FAIL", detail))
    for pct, slo in (("p99_s", p99_slo), ("p999_s", p999_slo)):
        if slo is None:
            continue
        v = _num(kv, pct)
        if v is None:
            out.append(Verdict(f"kv-{pct[:-2]}", "SKIP", f"{pct} not present"))
            continue
        ok = v <= slo
        out.append(Verdict(
            f"kv-{pct[:-2]}", "PASS" if ok else "FAIL",
            f"{pct} = {v * 1e6:.1f}us <= SLO {slo * 1e6:.1f}us",
        ))
    return out


def _check_kv_availability(kv: dict, min_avail: float,
                           max_recovery_s: Optional[float]) -> List[Verdict]:
    """Availability / recovery rules over a kv point's robustness fields."""
    avail = _num(kv, "availability")
    if avail is None:
        return [Verdict("kv-availability", "SKIP",
                        "no availability fields recorded (pre-replication point)")]
    out: List[Verdict] = []
    served = kv.get("requests_served")
    issued = kv.get("requests_issued")
    ok = avail >= min_avail
    out.append(Verdict(
        "kv-availability", "PASS" if ok else "FAIL",
        f"{served}/{issued} accepted requests served = {avail:.4f} >= {min_avail}",
    ))
    shed = _num(kv, "shed_fraction")
    if shed:
        out.append(Verdict(
            "kv-shed", "INFO",
            f"admission control shed {kv.get('requests_shed')} requests "
            f"(fraction {shed:.4f})", "info",
        ))
    if kv.get("crash_rank") is None:
        return out
    lost = _num(kv, "writes_lost") or 0
    out.append(Verdict(
        "kv-writes-lost", "PASS" if lost == 0 else "FAIL",
        f"{lost} writes lost their every owner before an ack",
    ))
    restored = kv.get("factor_restored")
    out.append(Verdict(
        "kv-factor-restored", "PASS" if restored else "FAIL",
        f"replication factor {kv.get('replication')} "
        f"{'restored online' if restored else 'NOT restored'} "
        f"({kv.get('rereplicated_keys')} keys re-shipped)",
    ))
    rec = _num(kv, "recovery_s") or 0.0
    if max_recovery_s is None:
        out.append(Verdict(
            "kv-recovery", "INFO",
            f"detection-to-restored recovery {rec * 1e6:.0f}us "
            f"({kv.get('failover_reads')} failover reads)", "info",
        ))
    else:
        out.append(Verdict(
            "kv-recovery", "PASS" if rec <= max_recovery_s else "FAIL",
            f"recovery {rec * 1e6:.0f}us <= {max_recovery_s * 1e6:.0f}us",
        ))
    return out


def _kv_points(kv: dict) -> List[tuple]:
    """``(path prefix, point)`` for one point, or for each point of a
    sweep curve."""
    curve = kv.get("curve")
    if isinstance(curve, list):
        return [(f"curve.{i}.", p) for i, p in enumerate(curve)]
    return [("", kv)]


def _check_kv_coherence(kv: dict) -> List[Verdict]:
    """The economy law of ``AggStore``'s cache protocol, on one point or on
    every point of a sweep curve: a registration entitles a reader to one
    invalidation, so owners cannot have sent more than were registered."""
    points = _kv_points(kv)
    bad = []
    for prefix, p in points:
        sent = _num(p, "invals_sent", prefix + "invals_sent")
        registered = _num(p, "sharers_registered", prefix + "sharers_registered")
        if sent is None or registered is None:
            return [Verdict("kv-coherence", "SKIP",
                            f"{prefix}invals_sent/sharers_registered not present")]
        if sent > registered:
            bad.append(f"{prefix}invals_sent {sent} > sharers_registered {registered}")
    if bad:
        return [Verdict("kv-coherence", "FAIL",
                        "; ".join(bad) + " — invalidations went to ranks holding no copy")]
    return [Verdict("kv-coherence", "PASS",
                    f"invals_sent <= sharers_registered on {len(points)} point(s)")]


def _check_kv_shard_skew(kv: dict) -> List[Verdict]:
    """Owner-side load balance, printed not judged: max/mean over ranks of
    ``applied_updates + reads_served``.  A skewed key stream puts one
    shard's CPU behind every other rank's requests, and no latency or
    stall number says so; the worst point of a sweep curve is reported."""
    skews = [(_num(p, "shard_load_skew", prefix + "shard_load_skew"), prefix)
             for prefix, p in _kv_points(kv)]
    if not skews or any(skew is None for skew, _ in skews):
        return [Verdict("kv-shard-skew", "SKIP", "shard_load_skew not present", "info")]
    skew, prefix = max(skews)
    return [Verdict(
        "kv-shard-skew", "INFO",
        f"{prefix}shard_load_skew = {skew} (busiest shard's applied updates "
        "+ served reads, over the mean rank's)", "info",
    )]


def _check_kv_write_dwell(kv: dict, min_util: float) -> List[Verdict]:
    """Write p50 as a multiple of the aggregator's ``max_dwell`` wherever
    the front end has idle time (a point at or above the utilization
    floor; the below-knee points of a curve).  A front end that parks
    ships its partial batches, so a write costs one ack round trip; a
    median at the timer says batches sit out the dwell with nothing to
    coalesce.  Saturated points are exempt: there the dwell buys batching."""
    knee = kv.get("knee")
    knee_mult = _num(knee, "multiplier") if isinstance(knee, dict) else None
    is_curve = isinstance(kv.get("curve"), list)
    worst = None
    for prefix, p in _kv_points(kv):
        p50 = _num(p, "write_p50_s", prefix + "write_p50_s")
        dwell = _num(p, "max_dwell_s", prefix + "max_dwell_s")
        if p50 is None or not dwell:
            return [Verdict("kv-write-dwell", "SKIP",
                            f"{prefix}write_p50_s/max_dwell_s not present", "warn")]
        if is_curve:
            mult = _num(p, "multiplier", prefix + "multiplier")
            idle = mult is not None and (knee_mult is None or mult < knee_mult)
        else:
            idle = (_num(p, "utilization") or 0.0) >= min_util
        if idle and (worst is None or p50 / dwell > worst[0]):
            worst = (p50 / dwell, prefix, p50, dwell,
                     _num(p, "read_p50_s", prefix + "read_p50_s"))
    if worst is None:
        return [Verdict("kv-write-dwell", "SKIP",
                        "no point below saturation (utilization floor / knee)", "warn")]
    ratio, prefix, p50, dwell, read_p50 = worst
    detail = (f"{prefix}write_p50_s = {p50 * 1e6:.1f}us = {ratio:.2f}x "
              f"max_dwell {dwell * 1e6:.1f}us")
    if read_p50 is not None:
        # a read median far above a round trip says the point is queueing
        detail += f" (read p50 {read_p50 * 1e6:.1f}us)"
    if ratio >= WRITE_DWELL_WARN:
        return [Verdict("kv-write-dwell", "WARN",
                        detail + " — writes are waiting out the timer", "warn")]
    if ratio < WRITE_DWELL_PASS:
        return [Verdict("kv-write-dwell", "PASS", detail + f" < {WRITE_DWELL_PASS}x", "warn")]
    return [Verdict("kv-write-dwell", "INFO", detail, "info")]


def _check_telemetry(tel: dict, max_gap: float, max_retx_rate: float,
                     max_stall_frac: float) -> List[Verdict]:
    ranks = tel.get("ranks", {})
    if not ranks:
        return [Verdict("telemetry", "SKIP", "no per-rank telemetry present")]
    worst_gap = 0.0
    retx = nic_ops = 0
    stall = 0.0
    t_end = 0.0
    for rt in ranks.values():
        wins = rt.get("windows", [])
        for w in wins:
            if w.get("max_gap_s", 0.0) > worst_gap:
                worst_gap = w["max_gap_s"]
        if wins:
            last = wins[-1]
            retx += last["rel"]["retx"]
            nic = last["nic"]
            nic_ops += nic["puts"] + nic["gets"] + nic["ams"] + nic["amos"]
            stall += last["agg"]["credit_stall_s"]
            if last["t"] > t_end:
                t_end = last["t"]
    out = [Verdict(
        "attentiveness-gap",
        "PASS" if worst_gap <= max_gap else "WARN",
        f"max progress gap {worst_gap * 1e6:.1f}us <= {max_gap * 1e6:.1f}us",
        "warn",
    )]
    rate = (retx / nic_ops) if nic_ops else 0.0
    out.append(Verdict(
        "retransmit-rate",
        "PASS" if rate <= max_retx_rate else "WARN",
        f"{retx} retransmits / {nic_ops} NIC ops = {rate:.4f} <= {max_retx_rate}",
        "warn",
    ))
    n = len(ranks)
    frac = (stall / (n * t_end)) if t_end > 0 else 0.0
    out.append(Verdict(
        "credit-stall-fraction",
        "PASS" if frac <= max_stall_frac else "WARN",
        f"agg credit stall {frac:.3f} of rank-time <= {max_stall_frac}",
        "warn",
    ))
    return out


# ---------------------------------------------------------------- evaluate
def evaluate(docs: Dict[str, Optional[dict]], rules: Sequence[dict] = (),
             min_utilization: float = DEFAULT_MIN_UTILIZATION,
             p99_slo: Optional[float] = None,
             p999_slo: Optional[float] = None,
             min_availability: float = DEFAULT_MIN_AVAILABILITY,
             max_recovery_s: Optional[float] = None,
             max_gap_s: float = DEFAULT_MAX_GAP_S,
             max_retx_rate: float = DEFAULT_MAX_RETX_RATE,
             max_stall_frac: float = DEFAULT_MAX_STALL_FRAC,
             ) -> List[Verdict]:
    """Run the built-in checks plus any declarative rules."""
    verdicts: List[Verdict] = []

    def apply(check, *args) -> None:
        try:
            verdicts.extend(check(*args))
        except _Incomparable as exc:
            verdicts.append(Verdict(
                exc.path, "FAIL", f"{exc.path} = {exc.value!r} is not a number"))

    kv = docs.get("kv")
    if kv is not None and isinstance(kv.get("curve"), list):
        apply(_check_kv_capacity, kv, min_utilization)
    elif kv is not None:
        apply(_check_kv_point, kv, min_utilization, p99_slo, p999_slo)
        apply(_check_kv_availability, kv, min_availability, max_recovery_s)
    if kv is not None:
        apply(_check_kv_coherence, kv)
        apply(_check_kv_write_dwell, kv, min_utilization)
        apply(_check_kv_shard_skew, kv)
    tel = docs.get("telemetry")
    if tel is not None:
        apply(_check_telemetry, tel, max_gap_s, max_retx_rate, max_stall_frac)
    for rule in rules:
        verdicts.append(eval_rule(rule, docs))
    return verdicts


def _load(path: Optional[str]) -> Optional[dict]:
    if not path:
        return None
    with open(path) as fh:
        return json.load(fh)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kv", default=None,
                    help="kv_bench JSON: one point (--point/--crash-point) "
                    "or a capacity curve (--sweep)")
    ap.add_argument("--telemetry", default=None, help="Telemetry.as_dict JSON dump")
    ap.add_argument("--rules", default=None, help="extra declarative rules (JSON list)")
    ap.add_argument("--min-utilization", type=float, default=DEFAULT_MIN_UTILIZATION)
    ap.add_argument("--p99-slo", type=float, default=None,
                    help="p99 sojourn SLO in seconds (kv doc)")
    ap.add_argument("--p999-slo", type=float, default=None,
                    help="p999 sojourn SLO in seconds (kv doc)")
    ap.add_argument("--min-availability", type=float,
                    default=DEFAULT_MIN_AVAILABILITY,
                    help="floor on the fraction of accepted requests served "
                    "(kv doc with availability fields)")
    ap.add_argument("--max-recovery", type=float, default=None,
                    help="ceiling on detection-to-factor-restored recovery "
                    "time in simulated seconds (kv crash doc); reported as "
                    "INFO when unset")
    ap.add_argument("--max-gap", type=float, default=DEFAULT_MAX_GAP_S,
                    help="attentiveness ceiling in simulated seconds")
    ap.add_argument("--max-retx-rate", type=float, default=DEFAULT_MAX_RETX_RATE)
    ap.add_argument("--max-stall-frac", type=float, default=DEFAULT_MAX_STALL_FRAC)
    ap.add_argument("--strict", action="store_true",
                    help="WARN-severity violations also fail the run, and "
                    "so does a run in which no rule applied")
    ap.add_argument("--out", default=None, help="write the verdict list as JSON here")
    args = ap.parse_args(argv)

    docs = {
        "kv": _load(args.kv),
        "telemetry": _load(args.telemetry),
    }
    if all(d is None for d in docs.values()):
        ap.error("nothing to check: pass at least one of --kv/--telemetry")
    rules = _load(args.rules) or []

    verdicts = evaluate(
        docs, rules,
        min_utilization=args.min_utilization,
        p99_slo=args.p99_slo,
        p999_slo=args.p999_slo,
        min_availability=args.min_availability,
        max_recovery_s=args.max_recovery,
        max_gap_s=args.max_gap,
        max_retx_rate=args.max_retx_rate,
        max_stall_frac=args.max_stall_frac,
    )
    if args.strict and all(v.status == "SKIP" for v in verdicts):
        # an empty or renamed artifact must not read as healthy
        verdicts.append(Verdict(
            "no-rule-applied", "FAIL",
            "the documents held nothing a rule reads (empty or renamed artifact?)"))
    for v in verdicts:
        print(v.line())
    n_fail = sum(1 for v in verdicts if v.status == "FAIL")
    n_warn = sum(1 for v in verdicts if v.status == "WARN")
    n_pass = sum(1 for v in verdicts if v.status == "PASS")
    n_info = sum(1 for v in verdicts if v.status == "INFO")
    bad = n_fail + (n_warn if args.strict else 0)
    print(f"[health] {n_pass} pass, {n_warn} warn, {n_info} info, {n_fail} fail"
          + (" (strict: warnings fail)" if args.strict else ""))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"verdicts": [v.as_dict() for v in verdicts],
                       "healthy": bad == 0}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
