"""Health-gate CLI: rules over KV runs / telemetry rollups.

``python -m repro.tools.health`` evaluates its rules against any mix of:

- ``--kv DOC.json``            — a ``repro.bench.kv_bench`` document:
  one ``summarize_point`` dict (utilization + p50..p999 sojourn latency,
  availability fields of a crash point) or, recognized by its ``curve``
  key, a ``--sweep`` capacity curve (below-knee utilization rule); either
  way ``kv-coherence`` holds ``invals_sent <= sharers_registered``,
  ``kv-write-dwell`` compares write p50 with the aggregator's ``max_dwell``
  at every non-saturated point (WARN: writes are waiting out the timer)
  and ``kv-shard-skew`` prints the owner-side load imbalance (INFO);
- ``--telemetry TEL.json``     — a ``repro.util.Telemetry.as_dict`` dump
  (windowed rollups: attentiveness gap, retransmits, credit stalls).

Every rule prints one verdict line, whose detail states the relation
that holds (``<=`` when a ceiling is met, ``>`` when it is not), and the
process exits non-zero when any verdict is FAIL.  With ``--strict``, a
WARN verdict fails too, and so does a run in which no rule applied at
all (an empty or renamed artifact must not read as healthy) — which is
how CI turns a green-looking run into a hard gate.

Every field is read with its dotted path into the document: a missing
document or path yields SKIP and a value that cannot be compared yields
FAIL naming the path, never a crash — a health check must say what is
wrong with its input.
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

#: what ``retransmit-rate`` and ``credit-stall-fraction`` read off each
#: rank's last telemetry window
_RETX_FIELDS = ("rel.retx", "nic.puts", "nic.gets", "nic.ams", "nic.amos")
_STALL_FIELDS = ("agg.credit_stall_s", "t")


class Verdict:
    """One evaluated rule plus a detail line.

    Statuses: PASS, FAIL (always fails the run), WARN (fails only under
    ``--strict``), INFO (never fails — a number worth printing that is
    not a statement about health, e.g. a crash point's utilization), SKIP
    (input or report section absent).
    """

    def __init__(self, name: str, status: str, detail: str):
        self.name = name
        self.status = status
        self.detail = detail

    def line(self) -> str:
        return f"[{self.status:4s}] {self.name}: {self.detail}"


class _Incomparable(Exception):
    """A document value that a rule must compare is not a number."""

    def __init__(self, path: str, value: Any):
        super().__init__(path)
        self.path = path
        self.value = value


def _num(doc: dict, key: str, path: Optional[str] = None):
    """The number at the dotted ``key`` (``rel.retx``) under ``doc``, None
    if absent; anything else raises :class:`_Incomparable` naming ``path``
    (default: ``key``)."""
    value = doc
    for part in key.split("."):
        if value is None:
            return None
        if not isinstance(value, dict):
            raise _Incomparable(path or key, value)
        value = value.get(part)
    if value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        return value
    raise _Incomparable(path or key, value)


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
            ))
        else:
            ok = util >= min_util
            detail = (f"achieved {kv.get('achieved_rps')}/{kv.get('offered_rps')} req/s, "
                      f"utilization {util} {'>=' if ok else '<'} {min_util}")
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
            f"{pct} = {v * 1e6:.1f}us {'<=' if ok else '>'} SLO {slo * 1e6:.1f}us",
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
        f"{served}/{issued} accepted requests served = {avail:.4f} "
        f"{'>=' if ok else '<'} {min_avail}",
    ))
    shed = _num(kv, "shed_fraction")
    if shed:
        out.append(Verdict(
            "kv-shed", "INFO",
            f"admission control shed {kv.get('requests_shed')} requests "
            f"(fraction {shed:.4f})",
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
            f"({kv.get('failover_reads')} failover reads)",
        ))
    else:
        ok = rec <= max_recovery_s
        out.append(Verdict(
            "kv-recovery", "PASS" if ok else "FAIL",
            f"recovery {rec * 1e6:.0f}us {'<=' if ok else '>'} {max_recovery_s * 1e6:.0f}us",
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
        return [Verdict("kv-shard-skew", "SKIP", "shard_load_skew not present")]
    skew, prefix = max(skews)
    return [Verdict(
        "kv-shard-skew", "INFO",
        f"{prefix}shard_load_skew = {skew} (busiest shard's applied updates "
        "+ served reads, over the mean rank's)",
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
                            f"{prefix}write_p50_s/max_dwell_s not present")]
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
                        "no point below saturation (utilization floor / knee)")]
    ratio, prefix, p50, dwell, read_p50 = worst
    detail = (f"{prefix}write_p50_s = {p50 * 1e6:.1f}us = {ratio:.2f}x "
              f"max_dwell {dwell * 1e6:.1f}us")
    if read_p50 is not None:
        # a read median far above a round trip says the point is queueing
        detail += f" (read p50 {read_p50 * 1e6:.1f}us)"
    if ratio >= WRITE_DWELL_WARN:
        return [Verdict("kv-write-dwell", "WARN",
                        detail + " — writes are waiting out the timer")]
    if ratio < WRITE_DWELL_PASS:
        return [Verdict("kv-write-dwell", "PASS", detail + f" < {WRITE_DWELL_PASS}x")]
    return [Verdict("kv-write-dwell", "INFO", detail)]


def _check_telemetry(tel: dict, max_gap: float, max_retx_rate: float,
                     max_stall_frac: float) -> List[Verdict]:
    ranks = tel.get("ranks")
    if not ranks:
        return [Verdict("telemetry", "SKIP", "no per-rank telemetry present")]
    worst_gap = 0.0
    totals = dict.fromkeys(_RETX_FIELDS + _STALL_FIELDS, 0)
    absent = {}  # field -> the first dotted path it was missing at
    for r, rank in ranks.items():
        wins = rank.get("windows") or []
        for i, w in enumerate(wins):
            gap = _num(w, "max_gap_s", f"ranks.{r}.windows.{i}.max_gap_s")
            if gap is not None and gap > worst_gap:
                worst_gap = gap
        if not wins:
            continue
        at = f"ranks.{r}.windows.{len(wins) - 1}."
        for key in totals:
            v = _num(wins[-1], key, at + key)
            if v is None:
                absent.setdefault(key, at + key)
            elif key == "t":
                totals["t"] = max(totals["t"], v)
            else:
                totals[key] += v
    ok = worst_gap <= max_gap
    out = [Verdict(
        "attentiveness-gap", "PASS" if ok else "WARN",
        f"max progress gap {worst_gap * 1e6:.1f}us {'<=' if ok else '>'} "
        f"{max_gap * 1e6:.1f}us",
    )]
    missing = [absent[k] for k in _RETX_FIELDS if k in absent]
    if missing:
        out.append(Verdict("retransmit-rate", "SKIP", f"{missing[0]} not present"))
    else:
        retx = totals["rel.retx"]
        nic_ops = sum(totals[f"nic.{k}"] for k in ("puts", "gets", "ams", "amos"))
        rate = (retx / nic_ops) if nic_ops else 0.0
        ok = rate <= max_retx_rate
        out.append(Verdict(
            "retransmit-rate", "PASS" if ok else "WARN",
            f"{retx} retransmits / {nic_ops} NIC ops = {rate:.4f} "
            f"{'<=' if ok else '>'} {max_retx_rate}",
        ))
    missing = [absent[k] for k in _STALL_FIELDS if k in absent]
    if missing:
        out.append(Verdict("credit-stall-fraction", "SKIP", f"{missing[0]} not present"))
    else:
        t_end = totals["t"]
        frac = (totals["agg.credit_stall_s"] / (len(ranks) * t_end)) if t_end > 0 else 0.0
        ok = frac <= max_stall_frac
        out.append(Verdict(
            "credit-stall-fraction", "PASS" if ok else "WARN",
            f"agg credit stall {frac:.3f} of rank-time {'<=' if ok else '>'} {max_stall_frac}",
        ))
    return out


# ---------------------------------------------------------------- evaluate
def evaluate(docs: Dict[str, Optional[dict]],
             min_utilization: float = DEFAULT_MIN_UTILIZATION,
             p99_slo: Optional[float] = None,
             p999_slo: Optional[float] = None,
             min_availability: float = DEFAULT_MIN_AVAILABILITY,
             max_recovery_s: Optional[float] = None,
             max_gap_s: float = DEFAULT_MAX_GAP_S,
             max_retx_rate: float = DEFAULT_MAX_RETX_RATE,
             max_stall_frac: float = DEFAULT_MAX_STALL_FRAC,
             ) -> List[Verdict]:
    """Run every check whose document is loaded."""
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
                    help="WARN verdicts also fail the run, and "
                    "so does a run in which no rule applied")
    args = ap.parse_args(argv)

    docs = {
        "kv": _load(args.kv),
        "telemetry": _load(args.telemetry),
    }
    if all(d is None for d in docs.values()):
        ap.error("nothing to check: pass at least one of --kv/--telemetry")

    verdicts = evaluate(
        docs,
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
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
