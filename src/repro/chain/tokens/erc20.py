"""ERC-20 fungible token contract.

Implements the full EIP-20 surface — ``transfer``, ``approve``,
``transferFrom`` (snake-cased as ``transfer_from``), ``balance_of``,
``allowance``, ``total_supply`` — plus a minter role used by the marketplace
to denominate rewards.  Events mirror the standard: ``Transfer`` and
``Approval``.
"""

from __future__ import annotations

from repro.chain.contract import Contract


class ERC20Token(Contract):
    """A fungible token ledger with allowances and an optional minter."""

    def audit_invariants(self, state) -> list[str]:
        """Supply conservation: issued balances must sum to total_supply."""
        balances = self.storage.get("balances", {})
        problems = []
        negative = sorted(owner for owner, amount in balances.items()
                          if amount < 0)
        for owner in negative:
            problems.append(f"negative token balance for {owner}")
        total = self.storage.get("total_supply", 0)
        issued = sum(balances.values())
        if issued != total:
            problems.append(
                f"token supply mismatch: balances sum to {issued}, "
                f"total_supply is {total}"
            )
        return problems

    def setup(self, name: str = "PDS2 Token", symbol: str = "PDS",
              decimals: int = 18, initial_supply: int = 0,
              minter: str | None = None) -> None:
        """Initialize metadata and optionally mint ``initial_supply``.

        The deployer receives the initial supply and becomes the minter
        unless another ``minter`` address is given.
        """
        self.require(decimals >= 0, "decimals must be non-negative")
        self.require(initial_supply >= 0, "initial supply must be non-negative")
        deployer = self.ctx.sender
        self.swrite(name, "name")
        self.swrite(symbol, "symbol")
        self.swrite(decimals, "decimals")
        self.swrite(minter if minter is not None else deployer, "minter")
        self.swrite(0, "total_supply")
        if initial_supply:
            self._mint_to(deployer, initial_supply)

    # -- internal helpers (not externally callable) -----------------------------

    def _balance(self, owner: str) -> int:
        return self.sread("balances", owner, default=0)

    def _mint_to(self, recipient: str, amount: int) -> None:
        self.swrite(self._balance(recipient) + amount, "balances", recipient)
        self.swrite(self.sread("total_supply") + amount, "total_supply")
        self.emit("Transfer", sender="0x" + "0" * 40, recipient=recipient,
                  amount=amount)

    def _move(self, sender: str, recipient: str, amount: int) -> None:
        self.require(amount >= 0, "amount must be non-negative")
        balance = self._balance(sender)
        self.require(balance >= amount, "insufficient token balance")
        self.swrite(balance - amount, "balances", sender)
        self.swrite(self._balance(recipient) + amount, "balances", recipient)
        self.emit("Transfer", sender=sender, recipient=recipient, amount=amount)

    # -- views -------------------------------------------------------------------

    def name(self) -> str:
        """Token name (EIP-20 optional metadata)."""
        return self.sread("name")

    def symbol(self) -> str:
        """Token ticker symbol."""
        return self.sread("symbol")

    def decimals(self) -> int:
        """Number of display decimals."""
        return self.sread("decimals")

    def total_supply(self) -> int:
        """Total tokens in existence."""
        return self.sread("total_supply")

    def balance_of(self, owner: str) -> int:
        """Token balance of ``owner``."""
        return self._balance(owner)

    def allowance(self, owner: str, spender: str) -> int:
        """Remaining tokens ``spender`` may move on behalf of ``owner``."""
        return self.sread("allowances", owner, spender, default=0)

    # -- mutations ---------------------------------------------------------------

    def transfer(self, recipient: str, amount: int) -> bool:
        """Move ``amount`` tokens from the caller to ``recipient``."""
        self._move(self.ctx.sender, recipient, amount)
        return True

    def approve(self, spender: str, amount: int) -> bool:
        """Authorize ``spender`` to move up to ``amount`` of caller's tokens."""
        self.require(amount >= 0, "allowance must be non-negative")
        self.swrite(amount, "allowances", self.ctx.sender, spender)
        self.emit("Approval", owner=self.ctx.sender, spender=spender,
                  amount=amount)
        return True

    def transfer_from(self, owner: str, recipient: str, amount: int) -> bool:
        """Move ``owner``'s tokens using the caller's allowance."""
        spender = self.ctx.sender
        allowed = self.allowance(owner, spender)
        self.require(allowed >= amount, "allowance exceeded")
        self.swrite(allowed - amount, "allowances", owner, spender)
        self._move(owner, recipient, amount)
        return True

    def mint(self, recipient: str, amount: int) -> bool:
        """Create new tokens (minter only) — how reward pools are funded."""
        self.require(self.ctx.sender == self.sread("minter"),
                     "only the minter may mint")
        self.require(amount > 0, "mint amount must be positive")
        self._mint_to(recipient, amount)
        return True

    def burn(self, amount: int) -> bool:
        """Destroy ``amount`` of the caller's tokens."""
        sender = self.ctx.sender
        balance = self._balance(sender)
        self.require(0 < amount <= balance, "burn exceeds balance")
        self.swrite(balance - amount, "balances", sender)
        self.swrite(self.sread("total_supply") - amount, "total_supply")
        self.emit("Transfer", sender=sender, recipient="0x" + "0" * 40,
                  amount=amount)
        return True
