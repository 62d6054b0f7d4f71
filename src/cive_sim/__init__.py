"""Deterministic SIP call-setup simulator with caller-ID spoofing and
callback verification (CIVE: Callee Inference and VErification)."""

from .sip_core import (
    AlertUrn,
    PemValue,
    PhoneNumber,
    SipMessage,
    SipMethod,
    StatusClass,
    StatusCode,
    classify_status,
    parse_message,
    serialize_message,
)
from .call_fsm import (
    CalleeProfile,
    CallPhase,
    Connected,
    Dialing,
    EndpointState,
    Held,
    Idle,
    Ringing,
    on_bye,
    on_cancel,
    on_incoming_invite,
)
from .netsim import (
    DuplicateNumber,
    Federation,
    GatewayPolicy,
    PhoneLine,
    SimBudgetExceeded,
)
from .cive import (
    Decision,
    FeatureVector,
    IncomingCallContext,
    InferredState,
    SignalingTrace,
    Verdict,
    decide,
    extract_features,
    infer_state,
    launch_verification,
    verify_incoming,
)
from .scenario import (
    GroundTruth,
    RunReport,
    Scenario,
    load_scenario,
    run_matrix,
    run_scenario,
)

__version__ = "0.1.0"
