"""Deterministic pseudo-random numbers.

The standard library's random module does not promise cross-version
stream stability, and reproducibility of witnesses is part of the
contract here, so we carry a small splitmix64 generator.  The stream is
a pure function of the seed on every platform.
"""

_MASK = (1 << 64) - 1


def _mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream; next_u64 advances by the golden-gamma increment."""

    __slots__ = ("_state",)

    def __init__(self, seed):
        self._state = seed & _MASK

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        return _mix(self._state)

    def randint(self, low, high):
        """Uniform integer in [low, high]; modulo bias is irrelevant here."""
        span = high - low + 1
        return low + self.next_u64() % span

    def unit_coefficient(self):
        """Draw from {1, ..., 1000}: a nonzero integer, but zero in F_p
        when p divides it; `vector` draws field scalars that are not
        all zero."""
        return self.randint(1, 1000)

    def vector(self, field, length):
        """`length` scalars of `field`, each `unit_coefficient` mapped
        into it, drawn again while all are zero.  A random linear form
        or combination is then never zero, and its entries still vary
        over F_2, whose only nonzero scalar is 1."""
        while True:
            v = tuple(field.from_int(self.unit_coefficient())
                      for _ in range(length))
            if any(v) or not length:
                return v

    def derive(self, index):
        """Independent child stream for attempt number `index`."""
        return SplitMix64(_mix(self._state ^ _mix(index ^ 0xA076_1D64_78BD_642F)))
