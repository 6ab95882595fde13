"""Integer value oracle for S(m, r, n) and checkers for every output kind.

Nothing here imports ``hypersums``.  The oracle follows from
n^m = sum_k k! {m k} C(n, k) (Stirling numbers of the second kind) and the
hockey-stick identity applied r times:

    S(m, r, n) = sum_{k=1}^{m} k! {m k} C(n+r, k+r)      for m >= 1,
    S(0, r, n) = C(n+r-1, r)                             for r >= 1,
    S(0, 0, n) = 1.

Each checker takes one program output and the request that produced it and
returns ``None`` when the output is right, or a one-line reason when it is
not.  An output that cannot be parsed is wrong.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial


class Stirling2:
    """Rows of the Stirling triangle of the second kind, grown on demand."""

    def __init__(self) -> None:
        self.rows: list[list[int]] = [[1]]

    def row(self, m: int) -> list[int]:
        while len(self.rows) <= m:
            prev = self.rows[-1]
            size = len(prev) + 1
            cur = [0] * size
            for k in range(1, size):
                cur[k] = k * (prev[k] if k < len(prev) else 0) + prev[k - 1]
            self.rows.append(cur)
        return self.rows[m]


_S2 = Stirling2()


def hyper_sum(m: int, r: int, n: int) -> int:
    """S(m, r, n) in integer arithmetic."""
    if min(m, r, n) < 0:
        raise ValueError(f"need m, r, n >= 0, got ({m}, {r}, {n})")
    if m == 0:
        return 1 if r == 0 else comb(n + r - 1, r)
    row = _S2.row(m)
    return sum(factorial(k) * row[k] * comb(n + r, k + r) for k in range(1, m + 1))


def rising(x: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= x + t
    return out


# -- parsing --------------------------------------------------------------------

_INT_OR_FRAC = re.compile(r"-?\d+(?:/\d+)?")
_TEXT_TERM = re.compile(r"(?:(?P<c>-?\d+(?:/\d+)?)\*)?(?P<neg>-)?(?P<var>[nNu])(?:\^(?P<k>\d+))?")
_LATEX_NUM = re.compile(r"(?:(?P<c>\d+)(?: |$))?(?:(?P<var>n|u|N_\{\d+\})(?:\^\{(?P<k>\d+)\})?)?")


def parse_fraction(text: str) -> Fraction:
    if not _INT_OR_FRAC.fullmatch(text):
        raise ValueError(f"not an exact number: {text!r}")
    return Fraction(text)


def evaluate(coeffs: dict[int, Fraction], x: Fraction) -> Fraction:
    return sum((c * x**k for k, c in coeffs.items()), Fraction(0))


def parse_text_poly(text: str, var: str) -> dict[int, Fraction]:
    """Coefficients by degree of a ``polyring.to_text`` rendering."""
    coeffs: dict[int, Fraction] = {}
    sign = 1
    tokens = text.split(" ")
    for pos, tok in enumerate(tokens):
        if pos % 2:
            if tok not in ("+", "-"):
                raise ValueError(f"expected a sign, got {tok!r}")
            sign = 1 if tok == "+" else -1
            continue
        if _INT_OR_FRAC.fullmatch(tok):
            c, k = Fraction(tok), 0
        else:
            match = _TEXT_TERM.fullmatch(tok)
            if not match or match["var"] != var:
                raise ValueError(f"unparsable term {tok!r}")
            c = Fraction(match["c"]) if match["c"] else Fraction(-1 if match["neg"] else 1)
            if match["c"] and match["neg"]:
                raise ValueError(f"unparsable term {tok!r}")
            k = int(match["k"]) if match["k"] else 1
        if k in coeffs:
            raise ValueError(f"repeated degree {k}")
        coeffs[k] = sign * c
    return coeffs


def _split_frac(term: str) -> tuple[str, int]:
    """Split ``\\frac{num}{den}`` (num may hold braces) into (num, den)."""
    if not term.startswith("\\frac{"):
        return term, 1
    depth, pos = 1, len("\\frac{")
    while depth:
        if pos >= len(term):
            raise ValueError(f"unbalanced braces in {term!r}")
        depth += {"{": 1, "}": -1}.get(term[pos], 0)
        pos += 1
    num, rest = term[len("\\frac{") : pos - 1], term[pos:]
    den = re.fullmatch(r"\{(\d+)\}", rest)
    if not den:
        raise ValueError(f"unparsable fraction {term!r}")
    return num, int(den[1])


def parse_latex_poly(text: str, var: str) -> dict[int, Fraction]:
    """Coefficients by degree of a ``polyring.to_latex`` rendering."""
    parts = re.split(r" ([+-]) ", text)
    coeffs: dict[int, Fraction] = {}
    for pos in range(0, len(parts), 2):
        term = parts[pos]
        sign = -1 if pos and parts[pos - 1] == "-" else 1
        if term.startswith("-") and pos == 0:
            sign, term = -1, term[1:]
        num, den = _split_frac(term)
        match = _LATEX_NUM.fullmatch(num)
        if not match or not (match["c"] or match["var"]):
            raise ValueError(f"unparsable term {term!r}")
        if match["var"] is None:
            k = 0
        elif match["var"].split("_")[0] != var:
            raise ValueError(f"wrong variable in {term!r}")
        else:
            k = int(match["k"]) if match["k"] else 1
        if k in coeffs:
            raise ValueError(f"repeated degree {k}")
        coeffs[k] = sign * Fraction(int(match["c"] or 1), den)
    return coeffs


def parse_json_poly(blob: object, var: str, r: int) -> dict[int, Fraction]:
    if not isinstance(blob, dict) or blob.get("var") != var or blob.get("r") != r:
        raise ValueError(f"wrong polynomial frame: {str(blob)[:80]}")
    return {k: json_fraction(c) for k, c in enumerate(blob["coeffs"])}


def json_fraction(pair: object) -> Fraction:
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(s, str) for s in pair)):
        raise ValueError(f"not a serialized rational: {pair!r}")
    num, den = int(pair[0]), int(pair[1])
    if den <= 0:
        raise ValueError(f"non-positive denominator: {pair!r}")
    return Fraction(num, den)


# -- checks ---------------------------------------------------------------------


def _first_mismatch(m: int, r: int, points: list[int], value_at) -> str | None:
    for n in points:
        want = hyper_sum(m, r, n)
        got = value_at(n)
        if got != want:
            return f"S({m}, {r}, {n}): got {str(got)[:40]}, oracle {str(want)[:40]}"
    return None


def _poly_parser(fmt: str):
    return {"text": parse_text_poly, "latex": parse_latex_poly}[fmt]


def _check_eval(req: dict, out: str) -> str | None:
    if req["format"] == "json":
        blob = json.loads(out)
        if (blob["m"], blob["r"], blob["n"]) != (req["m"], req["r"], req["n"]):
            return "echoed parameters differ from the request"
        value = json_fraction(blob["value"])
    else:
        value = parse_fraction(out.strip())
    return _first_mismatch(req["m"], req["r"], [req["n"]], lambda n: value)


def _check_poly_n(req: dict, out: str) -> str | None:
    if req["format"] == "json":
        coeffs = parse_json_poly(json.loads(out)["poly"], "n", 0)
    else:
        coeffs = _poly_parser(req["format"])(out.rstrip("\n"), "n")
    return _first_mismatch(req["m"], req["r"], req["points"], lambda n: evaluate(coeffs, Fraction(n)))


def _centered(req: dict, coeffs: dict[int, Fraction], scale: Fraction = Fraction(1)):
    r = req["r"]
    return lambda n: scale * comb(n + r, r + 1) * evaluate(coeffs, n + Fraction(r, 2))


_FACTORED = re.compile(r"\((?P<scale>[^()]+)\) \* binomial\(n\+(?P<a>\d+), (?P<b>\d+)\) \* \[(?P<poly>.*)\]")


def _check_poly_N(req: dict, out: str) -> str | None:
    m, r = req["m"], req["r"]
    if req["format"] == "json":
        blob = json.loads(out)
        value_at = _centered(req, parse_json_poly(blob["poly"], "N", r))
        if req["factored"]:
            fac = blob["factored"]
            if fac["prefactor"] != f"binomial(n+{r}, {r + 1})":
                return f"unexpected prefactor {fac['prefactor']!r}"
            bracket = parse_json_poly(fac["bracket"], "N", r)
            reason = _first_mismatch(m, r, req["points"], _centered(req, bracket, json_fraction(fac["scale"])))
            if reason:
                return reason
    elif req["factored"]:
        match = _FACTORED.fullmatch(out.rstrip("\n"))
        if not match or (int(match["a"]), int(match["b"])) != (r, r + 1):
            return "unparsable factored form"
        bracket = parse_text_poly(match["poly"], "N")
        value_at = _centered(req, bracket, parse_fraction(match["scale"]))
    else:
        value_at = _centered(req, _poly_parser(req["format"])(out.rstrip("\n"), "N"))
    return _first_mismatch(m, r, req["points"], value_at)


_U_TEXT = re.compile(
    r"(?P<pre>binomial\(n\+(?P<a>\d+), (?P<b>\d+)\)|\(2n\+(?P<c>\d+)\)/(?P<d>\d+) \* "
    r"binomial\(n\+(?P<e>\d+), (?P<f>\d+)\)) \* F\(u\) with F\(u\) = (?P<poly>.*), u = n\*\(n\+(?P<g>\d+)\)"
)


def _check_poly_u(req: dict, out: str) -> str | None:
    m, r = req["m"], req["r"]
    if req["format"] == "json":
        blob = json.loads(out)
        prefactor = blob["prefactor"]
        coeffs = parse_json_poly(blob["poly"], "u", r)
    elif req["format"] == "latex":
        prefactor = "s1" if m % 2 else "s2"
        coeffs = parse_latex_poly(out.rstrip("\n"), "u")
    else:
        match = _U_TEXT.fullmatch(out.rstrip("\n"))
        if not match:
            return "unparsable u form"
        prefactor = "s1" if match["a"] else "s2"
        numbers = [int(g) for g in match.group("a", "b", "c", "d", "e", "f", "g") if g]
        expect = [r, r + 1, r] if prefactor == "s1" else [r, r + 2, r, r + 1, r]
        if numbers != expect:
            return "prefactor parameters differ from the request"
        coeffs = parse_text_poly(match["poly"], "u")
    if prefactor not in ("s1", "s2") or (prefactor == "s1") != (m % 2 == 1):
        return f"unexpected prefactor {prefactor!r}"

    def value_at(n: int) -> Fraction:
        pre = Fraction(comb(n + r, r + 1))
        if prefactor == "s2":
            pre *= Fraction(2 * n + r, r + 2)
        return pre * evaluate(coeffs, Fraction(n * (n + r)))

    return _first_mismatch(m, r, req["points"], value_at)


def _check_det(req: dict, out: str) -> str | None:
    m, r, n = req["m"], req["r"], req["n"]
    if req["format"] == "json":
        blob = json.loads(out)
        if blob["at"] != n or blob["order"] != m - 1:
            return "echoed parameters differ from the request"
        value = json_fraction(blob["value"])
    else:
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        if not last.startswith("det value = "):
            return "no determinant value line"
        value = parse_fraction(last[len("det value = ") :])
    factor = Fraction(-1 if (m - 1) % 2 else 1, rising(r + 2, m - 1)) * comb(n + r, r + 1)
    return _first_mismatch(m, r, [n], lambda _: factor * value)


CHECKERS = {
    "eval": _check_eval,
    "poly-n": _check_poly_n,
    "poly-N": _check_poly_N,
    "poly-u": _check_poly_u,
    "det": _check_det,
}


def check_cli(req: dict, code: int, out: str) -> str | None:
    """``None`` if a CLI request exited 0 with an output the oracle confirms."""
    if code != 0:
        return f"exit code {code}"
    try:
        return CHECKERS[req["kind"]](req, out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unparsable output: {type(exc).__name__}: {str(exc)[:80]}"


def check_route(op: dict, values: list[str]) -> str | None:
    """``None`` if the values a route polynomial took at ``op['points']`` are right."""
    try:
        got = dict(zip(op["points"], (Fraction(v) for v in values)))
    except ValueError:
        return "unparsable value"
    if len(got) != len(op["points"]):
        return "missing values"
    return _first_mismatch(op["m"], op["r"], op["points"], got.__getitem__)
