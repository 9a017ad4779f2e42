"""Correctness oracle: checks one job's CLI outcome against the closed
form its generator recorded, never against earlier program output.

A job fails when its outcome differs from the expectation in any way.
A failure is *wrong* when the program answered and the answer is false:
exit 0 with values contradicting the closed form, a false check, routes
that disagree, an invalid input accepted, or output that is no JSON
envelope.  An exception that escapes `cli.main` is a failure but not a
wrong answer: the program gave no answer at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool
    detail: str = ""
    error_type: str = ""


def _envelope(stdout: str, stderr: str):
    for text in (stdout, stderr):
        if text.strip():
            try:
                payload = json.loads(text)
            except ValueError:
                return None
            return payload if isinstance(payload, dict) else None
    return None


def _mismatches(result, checks, expect):
    """Differences between a successful envelope and the closed form."""
    out = [f"check {k} is false" for k, v in checks.items() if v is not True]
    kind = expect["kind"]
    if kind == "curve":
        for key, field in (("deg_X", "deg_X"), ("deg_W", "deg_W"),
                           ("p_a", "p_a_hilbert")):
            if result.get(field) != expect[key]:
                out.append(f"{field}={result.get(field)!r}, "
                           f"expected {expect[key]}")
        routes = result.get("cid_routes") or {}
    elif kind == "cid":
        if result.get("cid") != expect["cid"]:
            out.append(f"cid={result.get('cid')!r}, expected {expect['cid']}")
        routes = result.get("routes") or {}
    else:  # germ
        for key in ("delta", "milnor"):
            if result.get(key) != expect[key]:
                out.append(f"{key}={result.get(key)!r}, "
                           f"expected {expect[key]}")
        if result.get("cid") != result.get("cid_direct"):
            out.append(f"cid={result.get('cid')!r} but "
                       f"cid_direct={result.get('cid_direct')!r}")
        routes = {}
    if kind in ("curve", "cid"):
        if not routes:
            out.append("no discrepancy route reported")
        for route, value in routes.items():
            if value != expect["cid"]:
                out.append(f"route {route} gave {value!r}, "
                           f"expected {expect['cid']}")
    return out


def check(expect: dict, code, stdout: str, stderr: str,
          escaped: BaseException = None) -> Verdict:
    if escaped is not None:
        return Verdict(False, False, f"escaped {type(escaped).__name__}",
                       type(escaped).__name__)
    payload = _envelope(stdout, stderr)
    if payload is None:
        return Verdict(False, True, f"exit {code} without a JSON envelope")
    errors = payload.get("errors") or []
    error_type = str(errors[0].get("type", "")) if errors else ""
    if expect["kind"] == "reject":
        if code == 0:
            return Verdict(False, True, "invalid input accepted")
        if code != expect["code"] or not errors:
            return Verdict(False, False,
                           f"exit {code} with {len(errors)} error(s), "
                           f"expected exit {expect['code']} with an error",
                           error_type)
        return Verdict(True, False, "", error_type)
    checks = payload.get("checks") or {}
    if code != 0 or errors:
        # `verify` exits 2 with CheckFailed when its own checks fail:
        # that is a false answer, not a refusal
        wrong = any(v is not True for v in checks.values())
        return Verdict(False, wrong, f"exit {code}: {error_type}", error_type)
    problems = _mismatches(payload.get("result") or {}, checks, expect)
    if problems:
        return Verdict(False, True, "; ".join(problems))
    return Verdict(True, False)
