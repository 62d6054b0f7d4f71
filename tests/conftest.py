import json
import random
from pathlib import Path

import pytest

from cive_sim.call_fsm import CalleeProfile, Connected, Dialing, Held
from cive_sim.netsim import Federation, GatewayPolicy
from cive_sim.sip_core import (
    AlertUrn,
    CANONICAL_REASON,
    PemValue,
    PhoneNumber,
    SipMessage,
    SipMethod,
    STATUS,
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


def loaded_federation(seed, n_calls):
    """Many concurrent calls on three carriers, the last enforcing caller ID.

    Every call has its own originator, target and peer; about half claim the
    peer's number. Targets are preset idle, busy (connected, with neither
    call waiting nor voicemail), connected, held, or dialing the peer.
    Returns the drained federation's rows as read back from JSON lines,
    and the originated call ids.
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
    return [json.loads(line) for line in net.trace_jsonl().splitlines()], call_ids
