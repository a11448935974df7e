"""ERC-721 non-fungible token contract.

The paper proposes NFTs for "indivisible, unique assets ... particularly
useful to model data and workload code".  Tokens here carry a metadata URI
and a content hash, so a dataset deed commits to the exact bytes it denotes:
the governance layer mints one token per registered dataset and per submitted
workload definition.
"""

from __future__ import annotations

from repro.chain.contract import Contract

_ZERO_ADDRESS = "0x" + "0" * 40


class ERC721Token(Contract):
    """A registry of unique, ownable tokens with per-token metadata."""

    def audit_invariants(self, state) -> list[str]:
        """Deed conservation: ownership records and balances must agree."""
        owners = self.storage.get("owners", {})
        balances = self.storage.get("balances", {})
        problems = []
        held: dict[str, int] = {}
        for owner in owners.values():
            held[owner] = held.get(owner, 0) + 1
        recorded = {owner: count for owner, count in balances.items()
                    if count != 0}
        if held != recorded:
            drifted = sorted(set(held) ^ set(recorded)
                             | {owner for owner in set(held) & set(recorded)
                                if held[owner] != recorded[owner]})
            problems.append(
                f"deed balance drift: ownership map and balances disagree "
                f"for {', '.join(drifted) or 'unknown owners'}"
            )
        next_id = self.storage.get("next_id", 0)
        stray = sorted(token for token in owners if int(token) >= next_id)
        for token in stray:
            problems.append(f"deed {token} exists beyond next_id {next_id}")
        return problems

    def setup(self, name: str = "PDS2 Deed", symbol: str = "DEED",
              minter: str | None = None) -> None:
        """Initialize the collection; the deployer is the default minter."""
        self.swrite(name, "name")
        self.swrite(symbol, "symbol")
        self.swrite(minter if minter is not None else self.ctx.sender, "minter")
        self.swrite(0, "next_id")

    # -- internal ----------------------------------------------------------------

    def _owner(self, token_id: int) -> str:
        owner = self.sread("owners", str(token_id), default=None)
        self.require(owner is not None, f"token {token_id} does not exist")
        return owner

    def _is_authorized(self, actor: str, token_id: int) -> bool:
        owner = self._owner(token_id)
        if actor == owner:
            return True
        if self.sread("token_approvals", str(token_id), default=None) == actor:
            return True
        return bool(self.sread("operator_approvals", owner, actor,
                               default=False))

    # -- views -------------------------------------------------------------------

    def name(self) -> str:
        """Collection name."""
        return self.sread("name")

    def symbol(self) -> str:
        """Collection symbol."""
        return self.sread("symbol")

    def owner_of(self, token_id: int) -> str:
        """Current owner of ``token_id`` (reverts if nonexistent)."""
        return self._owner(token_id)

    def balance_of(self, owner: str) -> int:
        """Number of tokens held by ``owner``."""
        return self.sread("balances", owner, default=0)

    def token_uri(self, token_id: int) -> str:
        """Metadata URI attached at mint time."""
        self._owner(token_id)  # existence check
        return self.sread("uris", str(token_id), default="")

    def content_hash(self, token_id: int) -> str:
        """Hex content hash the token commits to (dataset/workload bytes)."""
        self._owner(token_id)
        return self.sread("hashes", str(token_id), default="")

    def get_approved(self, token_id: int) -> str:
        """Address approved to transfer ``token_id``, or the zero address."""
        self._owner(token_id)
        approved = self.sread("token_approvals", str(token_id), default=None)
        return approved if approved is not None else _ZERO_ADDRESS

    def is_approved_for_all(self, owner: str, operator: str) -> bool:
        """True when ``operator`` may manage all of ``owner``'s tokens."""
        return bool(self.sread("operator_approvals", owner, operator,
                               default=False))

    # -- mutations ---------------------------------------------------------------

    def mint(self, recipient: str, uri: str = "",
             content_hash: str = "") -> int:
        """Mint a new token to ``recipient`` (minter only); returns its id."""
        self.require(self.ctx.sender == self.sread("minter"),
                     "only the minter may mint")
        token_id = self.sread("next_id")
        self.swrite(token_id + 1, "next_id")
        self.swrite(recipient, "owners", str(token_id))
        self.swrite(self.balance_of(recipient) + 1, "balances", recipient)
        if uri:
            self.swrite(uri, "uris", str(token_id))
        if content_hash:
            self.swrite(content_hash, "hashes", str(token_id))
        self.emit("Transfer", sender=_ZERO_ADDRESS, recipient=recipient,
                  token_id=token_id)
        return token_id

    def approve(self, approved: str, token_id: int) -> None:
        """Approve one address to transfer one token."""
        owner = self._owner(token_id)
        sender = self.ctx.sender
        self.require(
            sender == owner or self.is_approved_for_all(owner, sender),
            "caller is not owner nor operator",
        )
        self.swrite(approved, "token_approvals", str(token_id))
        self.emit("Approval", owner=owner, approved=approved,
                  token_id=token_id)

    def set_approval_for_all(self, operator: str, approved: bool) -> None:
        """Grant or revoke an operator over every caller-owned token."""
        self.swrite(bool(approved), "operator_approvals", self.ctx.sender,
                    operator)
        self.emit("ApprovalForAll", owner=self.ctx.sender, operator=operator,
                  approved=bool(approved))

    def transfer_from(self, sender: str, recipient: str,
                      token_id: int) -> None:
        """Transfer ``token_id`` from ``sender`` to ``recipient``."""
        owner = self._owner(token_id)
        self.require(owner == sender, "sender does not own the token")
        self.require(recipient != _ZERO_ADDRESS, "cannot transfer to zero")
        self.require(self._is_authorized(self.ctx.sender, token_id),
                     "caller not authorized for this token")
        self.sdelete("token_approvals", str(token_id))
        self.swrite(recipient, "owners", str(token_id))
        self.swrite(self.balance_of(sender) - 1, "balances", sender)
        self.swrite(self.balance_of(recipient) + 1, "balances", recipient)
        self.emit("Transfer", sender=sender, recipient=recipient,
                  token_id=token_id)

    def burn(self, token_id: int) -> None:
        """Destroy a token (owner or approved operator only)."""
        owner = self._owner(token_id)
        self.require(self._is_authorized(self.ctx.sender, token_id),
                     "caller not authorized for this token")
        self.sdelete("token_approvals", str(token_id))
        self.sdelete("owners", str(token_id))
        self.sdelete("uris", str(token_id))
        self.sdelete("hashes", str(token_id))
        self.swrite(self.balance_of(owner) - 1, "balances", owner)
        self.emit("Transfer", sender=owner, recipient=_ZERO_ADDRESS,
                  token_id=token_id)
