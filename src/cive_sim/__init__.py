"""Deterministic SIP call-setup simulator with caller-ID spoofing and
callback verification (CIVE: Callee Inference and VErification)."""
