"""A platform attestation key that records what it signs and what is checked
against its public half.

``TEEPlatform.attestation_key`` is an OpenSSL P-256 key, whose methods a test
cannot patch; install one of these on the platform instead (before the
attestation service provisions it, to count checks too).
"""

from __future__ import annotations


class CountingKey:
    """Wraps a P-256 private key: ``signed`` and ``checked`` hold payloads."""

    def __init__(self, key):
        self.key = key
        self.signed: list[bytes] = []
        self.checked: list[bytes] = []

    def sign(self, data, algorithm):
        self.signed.append(data)
        return self.key.sign(data, algorithm)

    def public_key(self):
        return CountingPublicKey(self)


class CountingPublicKey:
    def __init__(self, owner: CountingKey):
        self.owner = owner
        self.key = owner.key.public_key()

    def public_bytes(self, encoding, format):
        return self.key.public_bytes(encoding, format)

    def verify(self, signature, data, algorithm):
        self.owner.checked.append(data)
        return self.key.verify(signature, data, algorithm)
