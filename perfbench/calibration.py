"""A fixed unit of interpreter work that tells how fast the machine runs now.

The benchmark's machine is a few shared vCPUs whose speed drifts by up to
2x over seconds to minutes, and process CPU time drifts with wall time, so
neither clock alone compares two runs made at different moments. The
benchmark therefore times this unit next to every timed pass and divides
the pass's time by the unit's. Multiplied by ``REF_UNIT_S`` the quotient is
the pass's time in *reference seconds*: its time on a machine that runs one
unit in exactly ``REF_UNIT_S``. The drift slows the unit and the program
alike, so the quotient stays put while the raw times move.

The unit uses only the standard library and none of the program, so no
change to the program can move it. It does the kinds of work the program
does most: building small dicts and objects, formatting and splitting
SIP-like text, a JSON round trip and a sort.
"""

from __future__ import annotations

import gc
import json
import time

REF_UNIT_S = 0.001  # one unit takes about this long on the reference machine


class _Hop:
    __slots__ = ("carrier", "seq")

    def __init__(self, carrier: str, seq: int):
        self.carrier = carrier
        self.seq = seq

    def key(self) -> tuple[str, int]:
        return (self.carrier, self.seq)


def unit() -> int:
    """One unit of work; returns a checksum so nothing is optimised away."""
    rows = []
    for i in range(150):
        hop = _Hop(f"cn-{i % 3}", i)
        sip = (f"INVITE sip:+1555{i:07d}@{hop.carrier} SIP/2.0\r\n"
               f"Call-ID: c{i}\r\nCSeq: {i} INVITE\r\n\r\n")
        rows.append({"t_ms": i * 7, "dir": "egress" if i & 1 else "ingress",
                     "hop": hop.key(), "sip": sip})
    parsed = json.loads(json.dumps(rows))
    parsed.sort(key=lambda r: (r["hop"][0], -r["t_ms"]))
    headers: dict[str, int] = {}
    for row in parsed:
        for line in row["sip"].split("\r\n")[1:]:
            name, _, value = line.partition(": ")
            headers[name] = headers.get(name, 0) + len(value)
    return sum(headers.values())


def seconds_per_unit(units: int) -> float:
    """Run ``units`` units back to back after a full collection; returns the
    wall time of one."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - start) / units
