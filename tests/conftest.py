import json
import random
from pathlib import Path
from typing import NamedTuple

import pytest

from cive_sim.call_fsm import CalleeProfile, Connected, Dialing, Held
from cive_sim.cive import extract_features
from cive_sim.netsim import _ROW_FIELDS, EGRESS, INGRESS, Federation, GatewayPolicy
from cive_sim.sip_core import (
    AlertUrn,
    CANONICAL_REASON,
    PemValue,
    PhoneNumber,
    SipMessage,
    SipMethod,
    STATUS,
    parse_message,
)

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
CORPUS = REPO / "corpus" / "sip"


@pytest.fixture(scope="session")
def corpus_files() -> list[Path]:
    files = sorted(CORPUS.glob("*.sip"))
    assert files, f"no corpus files under {CORPUS}"
    return files


def random_valid_message(rng: random.Random) -> SipMessage:
    """Generate one valid message from scratch; the generator itself is the
    round-trip oracle (the object is built first, independent of the parser)."""
    number = lambda: "+" + "".join(rng.choice("0123456789") for _ in range(rng.randint(7, 15)))
    method = rng.choice(list(SipMethod))
    seq = rng.randint(1, 99)
    call_id = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789.-@") for _ in range(rng.randint(1, 24)))
    pem = rng.choice([None, *PemValue])
    alert = rng.choice([None, *AlertUrn])
    extras = tuple(
        (
            f"X-{rng.choice('ABCDEF')}{rng.choice('ab')}-{i}",
            "".join(rng.choice("abcdef0123456789=;,<>*+ ") for _ in range(rng.randint(1, 30))).strip() or "v",
        )
        for i in range(rng.randint(0, 4))
    )
    body = ""
    if rng.random() < 0.4:
        lines = [
            "".join(rng.choice("abcdef ") for _ in range(rng.randint(0, 20)))
            for _ in range(rng.randint(1, 5))
        ]
        body = "\n".join(lines)
    is_request = rng.random() < 0.5
    from_number, to_number = PhoneNumber(number()), PhoneNumber(number())
    status = None if is_request else STATUS[rng.choice(list(CANONICAL_REASON))]
    return SipMessage(method, from_number, to_number, call_id, seq, status, pem, alert, extras, body)


def row_tuples(rows):
    """Trace rows read as dicts (``Federation.trace``, or ``json.loads`` of
    its lines), as the ``(line, t_ms, from_hop, to_hop, dir, sip)`` tuples
    that ``cive.legs_from_trace_rows`` takes: rows are numbered from 1, as
    the lines of ``Federation.trace_jsonl``."""
    return [(line, *(row[name] for name in _ROW_FIELDS)) for line, row in enumerate(rows, 1)]


class Entry(NamedTuple):
    """One message of a call leg, as ``cive.extract_features`` takes it."""

    t_ms: int
    direction: str  # a row's dir; EGRESS: sent by the observer, INGRESS: received by it
    message: SipMessage


def reference_legs(rows):
    """Rebuild legs from trace rows read as dicts the straightforward way:
    parse every row, then rescan all rows for each leg. Returns
    ``(call_id, observer, entries)`` per leg, each entry an ``Entry``;
    valid rows only, no ordering check."""
    messages = [parse_message(row["sip"]) for row in rows]
    first_egress = {}
    for row, msg in zip(rows, messages):
        if row["dir"] == "egress":
            first_egress.setdefault(msg.call_id, (row, msg))
    legs = []
    for cid, (first, first_msg) in first_egress.items():
        observer = first["from_hop"]
        if first_msg.method is not SipMethod.INVITE or first_msg.status is not None:
            continue
        if not observer.startswith("ep:"):
            continue
        leg = []
        for row, msg in zip(rows, messages):
            if msg.call_id != cid:
                continue
            if row["dir"] == "egress" and row["from_hop"] == observer:
                leg.append(Entry(row["t_ms"], EGRESS, msg))
            elif row["dir"] == "ingress" and row["to_hop"] == observer:
                leg.append(Entry(row["t_ms"], INGRESS, msg))
        legs.append((cid, observer, leg))
    return legs


def agent_leg(agent):
    """A verifier agent's leg as ``Entry`` records, rebuilt from its
    federation's rows for its Call-ID: the agent keeps no message, and the
    rows are the record of its leg."""
    cid = agent.leg.invite.call_id
    return {c: leg for c, _, leg in reference_legs(agent.net.trace)}[cid]


def folded(legs):
    """``(call_id, observer, entries)`` legs as ``cive.legs_from_trace_rows``
    returns them: ``(call_id, observer, messages, features)``."""
    return [(cid, obs, len(leg), extract_features(leg)) for cid, obs, leg in legs]


def loaded_federation(seed, n_calls):
    """The rows of ``loaded_net``'s federation as read back from JSON lines,
    and the originated call ids."""
    net, call_ids = loaded_net(seed, n_calls)
    return [json.loads(line) for line in net.trace_jsonl().splitlines()], call_ids


def loaded_net(seed, n_calls):
    """Many concurrent calls on three carriers, the last enforcing caller ID.

    Every call has its own originator, target and peer; about half claim the
    peer's number. Targets are preset idle, busy (connected, with neither
    call waiting nor voicemail), connected, held, or dialing the peer.
    Returns the drained federation and the originated call ids.
    """
    rng = random.Random(seed)
    net = Federation(seed=seed)
    carriers = ("cn-a", "cn-b", "cn-s")
    for carrier in carriers:
        net.add_carrier(
            carrier, GatewayPolicy(enforce_caller_id=carrier == "cn-s", jitter_ms=20)
        )
    numbers = [f"+1555{n:07d}" for n in rng.sample(range(10_000_000), 3 * n_calls)]
    preset = {"busy": Connected, "connected": Connected, "held": Held, "dialing": Dialing}
    call_ids = []
    for i in range(n_calls):
        originator, target, peer = numbers[3 * i : 3 * i + 3]
        state = rng.choice(("idle", "busy", "connected", "held", "dialing"))
        for number in (originator, target, peer):
            busy_target = number == target and state == "busy"
            net.register_subscriber(
                rng.choice(carriers),
                number,
                CalleeProfile(
                    number=PhoneNumber(number),
                    call_waiting=not busy_target and rng.random() < 0.5,
                    voicemail_forward=not busy_target and rng.random() < 0.5,
                ),
            )
        if state in preset:
            net.lines[target].preset_state(preset[state](PhoneNumber(peer)))
        claimed = peer if rng.random() < 0.5 else originator
        call_ids.append(
            net.originate_call(
                claimed, net.lines[originator], target, at_ms=rng.randrange(2_000)
            )
        )
    net.run()
    return net, call_ids
