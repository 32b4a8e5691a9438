"""Compare one job's outcome with the oracle's expectation.

An outcome is what the worker recorded: exit code, printed text, an error
if the job raised, and the reports, verdicts and reach results kadlib
returned, as JSON lists; a report or verdict ends with kadlib's note,
which says whether it was decided by sampling.

judge() returns (reason, explained): reason is None when the verdict agrees
with the oracle.  A disagreement is explained when every decision that
disagrees was marked as sampled by kadlib itself: the announced fallback
got the answer wrong.  Explained or not, a disagreement is a wrong verdict.
"""

from __future__ import annotations

import re

import oracles

_SET_RE = re.compile(r"^(naive|efficient): \{([0-9,]*)\}")


def is_sampled(item) -> bool:
    return str(item[-1]).startswith("sampled")


def decisions(outcome):
    """(all, sampled) decisions among the returned reports, verdicts and
    reach results; a reach result is an exact fixpoint."""
    items = [it for it in outcome["items"] if it[0] in ("report", "verdict", "reach")]
    return len(items), sum(1 for it in items if it[0] != "reach" and is_sampled(it))


def judge(expect: dict, outcome: dict):
    if outcome["error"] is not None:
        return f"raised {outcome['error']}", False
    kind = expect["type"]
    if "rc" in expect and expect["rc"] is not None and outcome["rc"] != expect["rc"]:
        rc_reason = f"exit code {outcome['rc']}, expected {expect['rc']}"
    else:
        rc_reason = None
    return {"laws": _laws, "reach": _reach, "termination": _termination, "triple": _triple, "proof": _proof}[kind](
        expect, outcome, rc_reason
    )


def _laws(expect, outcome, rc_reason):
    items = outcome["items"]
    reports = [it for it in items if it[0] == "report"]
    sizes = [it[1:] for it in items if it[0] == "sizes"]
    if "sizes" in expect and sizes != [expect["sizes"]]:
        return f"sizes {sizes}, expected {expect['sizes']}", False
    if not reports:
        return "no law reports", False
    bad = []
    if expect.get("all_hold"):
        bad = [r for r in reports if not r[2]]
        reason = bad and f"{bad[0][1]} fails with witness {bad[0][3]}, expected to hold"
    else:
        want = expect["laws"]
        got = [[r[1], None if r[2] else r[3]] for r in reports]
        if [g[0] for g in got] != [w[0] for w in want]:
            return f"laws {[g[0] for g in got]}, expected {[w[0] for w in want]}", False
        bad = [r for r, g, w in zip(reports, got, want) if g[1] != w[1]]
        reason = bad and next(f"{g[0]}: witness {g[1]}, expected {w[1]}" for g, w in zip(got, want) if g != w)
    if bad:
        return reason, all(is_sampled(r) for r in bad)
    return rc_reason, False


def _reach(expect, outcome, rc_reason):
    got = {}
    for line in outcome["out"].splitlines():
        m = _SET_RE.match(line)
        if m:
            got[m.group(1)] = oracles.mask_of(int(s) for s in m.group(2).split(",") if s)
    for algo, want in expect["sets"].items():
        if algo not in got:
            return f"no {algo} result printed", False
        if got[algo] != want:
            diff = got[algo] ^ want
            return f"{algo} result differs at state {(diff & -diff).bit_length()}", False
    return rc_reason, False


_LABELS = ("noetherian", "well_founded", "loebian")


def _termination(expect, outcome, rc_reason):
    verdicts = [it for it in outcome["items"] if it[0] == "verdict"]
    if len(verdicts) != 3:
        return f"{len(verdicts)} termination verdicts, expected 3", False
    wrong = []
    for label, v, truth in zip(_LABELS, verdicts, expect["truth"]):
        if v[1] != truth:
            wrong.append((f"{label}={str(v[1]).lower()} ({v[3] or 'exhaustive'}), oracle says {str(truth).lower()}", v))
    witnesses = expect.get("witnesses")
    if witnesses and not wrong:
        for label, v, w in zip(_LABELS, verdicts, witnesses):
            if w is not None and v[2] != w:
                return f"{label} witness {v[2]}, expected {w}", False
    if wrong:
        # the CLI's own cycle check turns a wrong noetherian verdict into exit 1
        return "; ".join(w for w, _ in wrong), all(is_sampled(v) for _, v in wrong)
    return rc_reason, False


_ESCAPE_RE = re.compile(r"^triple \S+ FAILS: reachable state \{(\d+)\} escapes")


def _triple(expect, outcome, rc_reason):
    want = expect["escape"]
    out = outcome["out"].strip()
    if want is None:
        return (None if outcome["rc"] == 0 and out.endswith(" holds") else f"printed {out!r}, expected holds"), False
    m = _ESCAPE_RE.match(out)
    if outcome["rc"] != 1 or not m:
        return f"printed {out!r}, expected state {{{want}}} to escape", False
    if int(m.group(1)) != want:
        return f"escaping state {{{m.group(1)}}}, expected {{{want}}}", False
    return None, False


_INVALID_RE = re.compile(r"^proof \S+ INVALID: (\S+): ")


def _proof(expect, outcome, rc_reason):
    want = expect["path"]
    out = outcome["out"].strip()
    if want is None:
        return (None if outcome["rc"] == 0 and out.endswith(" is valid") else f"printed {out!r}, expected valid"), False
    m = _INVALID_RE.match(out)
    if outcome["rc"] != 1 or not m:
        return f"printed {out!r}, expected invalid at {want}", False
    if m.group(1) != want:
        return f"invalid at {m.group(1)}, expected {want}", False
    return None, False
