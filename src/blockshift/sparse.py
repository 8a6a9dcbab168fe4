"""Sparse subsets of the positive integers: enumeration, sliding-window
maxima, and the block-length sparsity test that gates the construction.

Rule-backed sets are enumerated bit-exactly: the power kind keeps its
exponent as a rational and takes integer roots, and the n*ln(n) kind
recomputes near-boundary values at high precision before flooring.

Every rule kind has the form s_n = floor(f(n)) with f convex, so its
window maxima come in closed form from a few counts instead of a scan
over the elements (SparseSetSpec._rule_max).  Each count inverts the rule
exactly at its two bounds: an integer root for n**gamma, a halving for
the evens, and for n*ln(n) a short search from an estimate of the root.
Explicit lists scan.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import IncompleteDataError, InvalidParameterError

# floor(n*ln n) is recomputed with mpmath when the float product lies within
# this absolute guard, plus its relative rounding error, of an integer: the
# float log and the product each err by at most about one ulp, 2**-52
_NLOGN_GUARD = 1e-9
_NLOGN_REL_GUARD = 2.0**-50
# largest numerator P of gamma = P/Q: term(n) computes n**P exactly
MAX_EXPONENT = 1000


def kth_root_floor(x: int, k: int) -> int:
    if x < 0 or k < 1:
        raise InvalidParameterError("kth_root_floor needs x >= 0, k >= 1")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return math.isqrt(x)
    # integer Newton steps from above decrease strictly until they reach
    # floor(x**(1/k)); each shrinks the excess by only about 1/k, so start
    # just above the float root, or at 2**ceil(bits/k) past the float range
    try:
        r = int(math.exp(math.log(x) / k) * (1 + 2.0**-30)) + 1
    except OverflowError:
        r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _int_field(where: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidParameterError(f"{where}: {text!r} is not an integer") from None


def _nlogn(n: int) -> int:
    try:
        v = n * math.log(n)
        f = math.floor(v)
        if min(v - f, f + 1 - v) >= _NLOGN_GUARD + v * _NLOGN_REL_GUARD:
            return f
    except OverflowError:  # n or the product is past the float range
        pass
    import mpmath

    # n ln n has about as many integer bits as n; as many again, plus 64,
    # are left for the fraction that the floor reads
    with mpmath.workprec(2 * n.bit_length() + 64):
        return int(mpmath.floor(mpmath.mpf(n) * mpmath.log(n)))


def _nlogn_root(x: int) -> int:
    """An integer at least 2 and within a few units of the root n of
    n ln n = x >= 2.

    Below 2**53, float Newton steps n <- (n + x) / (ln n + 1) fall from
    n = x to the root.  Past it their relative error of about 2**-52
    would leave a wide bracket for the caller to bisect with
    high-precision terms, so the root is x / W(x), with the Lambert W
    taken at the precision of x.
    """
    if x < 2**53:
        xf = n = float(x)
        while True:
            m = (n + xf) / (math.log(n) + 1)
            if m >= n:
                return max(int(n), 2)
            n = m
    import mpmath

    with mpmath.workprec(x.bit_length() + 64):
        return int(x / mpmath.lambertw(x))


def _window_at(s: int, hi: int | float, window_len: int) -> tuple[int, int]:
    """The length-L window starting at s, moved left to end by hi."""
    left = min(s, hi - window_len + 1)
    return left, left + window_len - 1


_KINDS = ("explicit", "monomial", "power", "nlogn", "evens")


@dataclass(frozen=True)
class SparseSetSpec:
    """A strictly increasing set S = {s_1 < s_2 < ...} of positive integers.

    kind selects the rule; explicit carries the full list.  The monomial
    and power kinds are one rule, s_n = floor(n**gamma), and differ only
    in their spelling (monomial:D stores gamma = D).  An explicit list is
    the complete set unless ``horizon`` marks it as a prefix enumerated
    only through that bound, in which case queries beyond the horizon
    raise IncompleteDataError.
    """

    kind: str
    gamma: Fraction | None = None
    values: tuple[int, ...] | None = None
    horizon: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown sparse-set kind {self.kind!r}")
        g = self.gamma
        if self.kind == "monomial" and (g is None or g < 1 or g.denominator != 1):
            raise InvalidParameterError("monomial kind needs degree >= 1")
        if self.kind == "power" and (g is None or g <= 1):
            raise InvalidParameterError("power kind needs rational gamma > 1")
        if g is not None:
            if g.numerator > MAX_EXPONENT:
                raise InvalidParameterError(
                    f"{self.kind} exponent {g.numerator} exceeds the bound {MAX_EXPONENT}")
            # term() runs per element; Fraction's numerator is a property
            object.__setattr__(self, "_p", g.numerator)
            object.__setattr__(self, "_q", g.denominator)
        if self.kind == "explicit":
            v = self.values
            if not v:
                raise InvalidParameterError("explicit kind needs a nonempty list")
            if v[0] < 1 or not all(map(operator.lt, v, v[1:])):
                raise InvalidParameterError("explicit list must be strictly increasing and positive")
            if self.horizon is not None and self.horizon < v[-1]:
                raise InvalidParameterError("horizon below the last listed element")

    # --- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, degree: int) -> "SparseSetSpec":
        return cls(kind="monomial", gamma=Fraction(degree))

    @classmethod
    def squares(cls) -> "SparseSetSpec":
        return cls.monomial(2)

    @classmethod
    def power(cls, gamma: Fraction | str | float) -> "SparseSetSpec":
        return cls(kind="power", gamma=Fraction(gamma))

    @classmethod
    def nlogn(cls) -> "SparseSetSpec":
        return cls(kind="nlogn")

    @classmethod
    def evens(cls) -> "SparseSetSpec":
        return cls(kind="evens")

    @classmethod
    def explicit(cls, values, horizon: int | None = None) -> "SparseSetSpec":
        return cls(kind="explicit", values=tuple(map(int, values)), horizon=horizon)

    @classmethod
    def from_file(cls, path) -> "SparseSetSpec":
        """One positive integer per line; '#' starts a comment.

        A ``# horizon: N`` comment marks the list as a prefix enumerated
        through N only.
        """
        values, horizon = [], None
        for lineno, raw in enumerate(Path(path).read_text(errors="replace").splitlines(), 1):
            try:  # the common line, a bare value (int ignores surrounding whitespace)
                values.append(int(raw))
                continue
            except ValueError:
                pass
            line = raw.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("horizon:"):
                    horizon = _int_field(f"{path}:{lineno}", body.split(":", 1)[1])
                continue
            if line:
                values.append(_int_field(f"{path}:{lineno}", line))
        return cls.explicit(values, horizon=horizon)

    @classmethod
    def parse(cls, text: str) -> "SparseSetSpec":
        """Parse the CLI/header spelling of a sparse set."""
        t = text.strip()
        if t == "squares":
            return cls.squares()
        if t == "evens":
            return cls.evens()
        if t == "nlogn":
            return cls.nlogn()
        where = f"sparse-set spec {text!r}"
        body = t.partition(":")[2]
        if t.startswith("monomial:"):
            return cls.monomial(_int_field(where, body))
        if t.startswith("power:"):
            num, slash, den = body.partition("/")
            p, q = _int_field(where, num), _int_field(where, den) if slash else 1
            if q == 0:
                raise InvalidParameterError(f"{where}: zero denominator")
            return cls.power(Fraction(p, q))
        if t.startswith("file:"):
            return cls.from_file(body)
        if t.startswith("list:"):
            return cls.explicit(_int_field(where, v) for v in body.split(","))
        raise InvalidParameterError(f"cannot parse sparse-set spec {text!r}")

    def describe(self) -> str:
        if self.kind == "monomial":
            return "squares" if self.gamma == 2 else f"monomial:{self.gamma}"
        if self.kind == "power":
            return f"power:{self.gamma}"
        if self.kind == "explicit":
            return "list:" + ",".join(str(v) for v in self.values)
        return self.kind

    # --- enumeration --------------------------------------------------

    @property
    def first_index(self) -> int:
        return 2 if self.kind == "nlogn" else 1

    def term(self, n: int) -> int:
        """s_n; defined for n >= first_index (explicit: n <= len(values))."""
        if n < self.first_index:
            raise InvalidParameterError(f"index {n} below first index {self.first_index}")
        if self.kind == "explicit":
            if n > len(self.values):
                raise IncompleteDataError(
                    f"explicit list has {len(self.values)} elements, index {n} requested"
                )
            return self.values[n - 1]
        if self.gamma is not None:
            return n**self._p if self._q == 1 else kth_root_floor(n**self._p, self._q)
        if self.kind == "nlogn":
            return _nlogn(n)
        return 2 * n  # evens

    def _first_index_with_term_at_least(self, x: int) -> int:
        """The least n >= first_index with s_n >= x, by inverting the rule."""
        lo = self.first_index
        if self.term(lo) >= x:
            return lo
        if self.gamma is not None:
            # floor(n**(P/Q)) >= x exactly when n**P >= x**Q
            return kth_root_floor(x**self._q - 1, self._p) + 1
        if self.kind == "evens":
            return (x + 1) // 2
        # nlogn: floor(n ln n) >= x exactly when n ln n >= x.  Gallop out
        # from an estimate of the root until term brackets the answer, then
        # bisect; the estimate is off by a few units at most.
        first, n, step = lo, _nlogn_root(x), 1
        if self.term(n) >= x:
            hi, lo = n, max(n - step, first)
            while lo > first and self.term(lo) >= x:
                hi, step = lo, 2 * step
                lo = max(hi - step, first)
        else:
            lo, hi = n, n + step
            while self.term(hi) < x:
                lo, step = hi, 2 * step
                hi = lo + step
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.term(mid) >= x:
                hi = mid
            else:
                lo = mid
        return hi

    def _list_span(self, lo: int, hi: int) -> tuple[int, int]:
        """The slice of an explicit list's values that lies in [lo, hi]."""
        if self.horizon is not None and hi > self.horizon:
            raise IncompleteDataError(
                f"explicit list only enumerated through {self.horizon}, "
                f"interval reaches {hi}"
            )
        return bisect.bisect_left(self.values, lo), bisect.bisect_right(self.values, hi)

    def _index_span(self, interval: tuple[int, int]) -> range:
        """The indices n with s_n in the inclusive interval; none below 1."""
        lo, hi = max(int(interval[0]), 1), int(interval[1])
        if hi < lo:
            return range(0)
        if self.kind == "explicit":
            i, j = self._list_span(lo, hi)
            return range(i + 1, j + 1)
        return range(self._first_index_with_term_at_least(lo),
                     self._first_index_with_term_at_least(hi + 1))

    def count_in(self, interval: tuple[int, int]) -> int:
        """|S ∩ interval|, from the indices at its two bounds."""
        span = self._index_span(interval)
        return span.stop - span.start  # len() of a range stops at sys.maxsize

    def elements_in(self, interval: tuple[int, int]) -> list[tuple[int, int]]:
        """All (n, s_n) with s_n in the inclusive interval; empty below 1."""
        span = self._index_span(interval)
        if self.kind == "explicit":
            return list(zip(span, self.values[span.start - 1:span.stop - 1]))
        return [(n, self.term(n)) for n in span]

    # --- window statistics ---------------------------------------------

    @property
    def zero_density(self) -> bool:
        """Whether the rule has Banach density zero (gamma > 1, nlogn)."""
        return self.kind == "nlogn" or (self.gamma is not None and self.gamma > 1)

    def max_window_count(
        self,
        window_len: int,
        rng: tuple[int, int],
        *,
        stop_at: int | None = None,
    ) -> tuple[int, tuple[int, int]]:
        """Largest |S ∩ I| over length-L subintervals I of rng, with a witness.

        The witness is the leftmost densest window: it starts at an element
        of S, moved left where needed to end inside rng.  When stop_at is
        given, the answer stops at stop_at (the certified answer is then
        "at least stop_at") with the leftmost window holding that many.

        Rule kinds are answered from a few count_in calls (see _rule_max);
        explicit lists scan their elements in rng.
        """
        lo, hi = int(rng[0]), int(rng[1])
        if window_len < 1:
            raise InvalidParameterError("window length must be positive")
        if hi - lo + 1 < window_len:
            raise InvalidParameterError(
                f"range [{lo},{hi}] shorter than window length {window_len}"
            )
        goal = None if stop_at is None else max(stop_at, 1)
        if self.kind == "explicit":
            return self._scan_max(window_len, lo, hi, goal)
        return self._rule_max(window_len, lo, hi, goal)

    def _rule_max(self, window_len: int, lo: int, hi: int | float,
                  goal: int | None) -> tuple[int, tuple[int, int]]:
        """max_window_count in closed form for a rule s_n = floor(f(n)), f convex.

        Each count inverts the rule exactly at its two bounds
        (_first_index_with_term_at_least).  Let s_f be the first element
        >= lo.  The window from min(s_f, hi - L + 1) holds ``lower``
        elements.  When the gaps never shrink it is the densest window.
        Otherwise convexity and the two floors give s_{i+t} - s_i >=
        s_{f+t} - s_f - 1 for i >= f, so no length-L window anywhere in N
        holds more than |S ∩ [s_f, s_f + L]| elements; that bound exceeds
        ``lower`` by at most one.  When it does, the walk looks for the
        first s_i with s_{i+lower} - s_i < L; it ends at the first s_i with
        s_{i+lower} - s_i > L, since convexity keeps every later difference
        >= L.  A hi of math.inf asks for all of [lo, ∞); the walk then ends
        because the set has density zero (evens and monomial:1 never walk).
        """
        first = self._first_index_with_term_at_least(lo)
        s_first = self.term(first)
        if s_first > hi:
            return 0, (lo, lo + window_len - 1)
        witness = _window_at(s_first, hi, window_len)
        lower = self.count_in(witness)
        if self._gaps_never_shrink() or (goal is not None and goal <= lower):
            return (lower if goal is None else min(lower, goal)), witness
        upper = self.count_in((s_first, s_first + window_len))
        if hi < math.inf:
            upper = min(upper, self.count_in((s_first, hi)))
        i = first
        while upper > lower:
            s_i, s_far = self.term(i), self.term(i + lower)
            if s_far > hi or s_far - s_i > window_len:
                break
            if s_far - s_i < window_len:
                return upper, _window_at(s_i, hi, window_len)
            i += 1
        return lower, witness

    def _gaps_never_shrink(self) -> bool:
        """s_{n+1} - s_n is nondecreasing: evens and integer gamma."""
        return self.kind == "evens" or (self.gamma is not None and self._q == 1)

    def _scan_max(self, window_len: int, lo: int, hi: int,
                  goal: int | None) -> tuple[int, tuple[int, int]]:
        """max_window_count by counting the window at every element in rng,
        all in one searchsorted: the first element whose count reaches the
        goal, else the first densest one."""
        first, stop = self._list_span(lo, hi)
        if first == stop:
            return 0, (lo, lo + window_len - 1)
        # past int64, exact Python integers (numpy would pick float64 below 2**64)
        pos = np.array(self.values[first:stop],
                       dtype=np.int64 if hi + window_len < 2**63 else object)
        counts = np.searchsorted(pos, pos + (window_len - 1), side="right")
        counts -= np.arange(pos.size)
        if goal is not None:
            np.minimum(counts, goal, out=counts)  # the first count to reach the goal wins
        i = int(counts.argmax())
        return int(counts[i]), _window_at(int(pos[i]), hi, window_len)

    def sparsity_report(
        self, window_len: int, m_k: int
    ) -> tuple[bool, int, int, tuple[int, int]]:
        """(ok, max count, threshold, witness) for |S ∩ I| < L/(3 m_k) over
        every length-L window I in N.

        Rule kinds are answered over all of N in closed form (_rule_max),
        a complete list over every element, and a list enumerated through
        a horizon over the windows inside [1, horizon].
        """
        if m_k < 1:
            raise InvalidParameterError("m_k must be positive")
        if window_len < 1 or window_len % (3 * m_k) != 0:
            raise InvalidParameterError(
                f"window length {window_len} is not a positive multiple of 3*{m_k}"
            )
        threshold = window_len // (3 * m_k)
        if self.kind != "explicit":
            count, witness = self._rule_max(window_len, 1, math.inf, threshold)
        else:
            # a horizon shorter than the window raises IncompleteDataError in the scan
            hi = (self.values[-1] + window_len - 1 if self.horizon is None
                  else max(self.horizon, window_len))
            count, witness = self._scan_max(window_len, 1, hi, threshold)
        return count < threshold, count, threshold, witness
