"""Governance-layer smart contracts (paper Sections II-C, II-D, III-A).

Three contracts implement the on-chain half of PDS2:

* :class:`ActorRegistry` — "registration of all actors, by using their
  blockchain addresses";
* :class:`DataRegistry` — "registration of datasets ... by means of their
  hashes", optionally minting an ERC-721 deed per dataset;
* :class:`WorkloadContract` — "a separate smart contract instance is
  deployed for managing the lifetime of each workload and validate all of
  its steps": it escrows the reward, gathers executor registrations and
  provider participation certificates, gates execution on the consumer's
  preconditions, collects quorum-confirmed results, and pays out.

The workload lifecycle state machine::

    OPEN --start_execution()--> EXECUTING --quorum of results--> COMPLETE
    OPEN | EXECUTING --abort() (consumer) | expire() (deadline)--> CANCELLED
"""

from __future__ import annotations

from repro.chain.contract import Contract

STATE_OPEN = "open"
STATE_EXECUTING = "executing"
STATE_COMPLETE = "complete"
STATE_CANCELLED = "cancelled"

#: Basis points denominator for share arithmetic.
BPS = 10_000


class ActorRegistry(Contract):
    """On-chain directory of marketplace participants and their roles."""

    ROLES = ("provider", "consumer", "executor")

    def setup(self) -> None:
        self.swrite(0, "actor_count")

    def register(self, role: str) -> None:
        """Register the caller under ``role`` (idempotent per role)."""
        self.require(role in self.ROLES, f"unknown role {role!r}")
        sender = self.ctx.sender
        roles = self.sread("roles", sender, default=[])
        if role not in roles:
            if not roles:
                self.swrite(self.sread("actor_count") + 1, "actor_count")
            self.swrite(sorted(roles + [role]), "roles", sender)
            self.emit("ActorRegistered", actor=sender, role=role)


class DataRegistry(Contract):
    """On-chain index of dataset commitments (hashes only, never data)."""

    def setup(self, deed_token: str | None = None) -> None:
        """``deed_token``: optional ERC-721 address to mint deeds from.

        The token's minter must be set to this registry's address.
        """
        self.swrite(deed_token, "deed_token")
        self.swrite(0, "dataset_count")

    def register_dataset(self, record_id: str, content_hash: str,
                         annotation_hash: str, size_bytes: int) -> int:
        """Commit a dataset; returns the deed token id (-1 when no token).

        The caller becomes the registered owner; the content hash pins the
        exact bytes; the annotation hash commits to the semantic metadata
        without revealing it on-chain.
        """
        self.require(size_bytes >= 0, "size must be non-negative")
        self.require(
            self.sread("datasets", record_id, default=None) is None,
            f"dataset {record_id!r} already registered",
        )
        sender = self.ctx.sender
        entry = {
            "owner": sender,
            "content_hash": content_hash,
            "annotation_hash": annotation_hash,
            "size_bytes": size_bytes,
            "registered_in_block": self.ctx.block.number,
            "deed_id": -1,
        }
        deed_token = self.sread("deed_token")
        if deed_token is not None:
            deed_id = self.ctx.call(
                deed_token, "mint", recipient=sender,
                uri=f"pds2://dataset/{record_id}", content_hash=content_hash,
            )
            entry["deed_id"] = deed_id
        self.swrite(entry, "datasets", record_id)
        self.swrite(self.sread("dataset_count") + 1, "dataset_count")
        self.emit("DatasetRegistered", record_id=record_id, owner=sender,
                  content_hash=content_hash, deed_id=entry["deed_id"])
        return entry["deed_id"]


class WorkloadContract(Contract):
    """Per-workload escrow, participation ledger and payout engine."""

    def audit_invariants(self, state) -> list[str]:
        """Escrow backing: unsettled workloads must hold their pool.

        While a workload is OPEN or EXECUTING the escrowed reward has not
        been paid out, so the contract account (native pool) or the reward
        token's ledger (ERC-20 pool) must still hold at least the recorded
        ``escrow``.  Settled states release the pool, so the slot carries
        no obligation there.
        """
        if self.storage.get("state") not in (STATE_OPEN, STATE_EXECUTING):
            return []
        escrow = self.storage.get("escrow", 0)
        if escrow < 0:
            return [f"negative escrow {escrow}"]
        if escrow == 0:
            return []
        token = self.storage.get("reward_token")
        if token is None:
            held = state.balances.get(self.address, 0)
            if held < escrow:
                return [
                    f"native escrow underfunded: holds {held}, "
                    f"owes {escrow}"
                ]
            return []
        token_contract = state.contracts.get(token)
        if token_contract is None:
            return [f"reward token {token} does not exist"]
        held = token_contract.storage.get("balances", {}).get(self.address, 0)
        if held < escrow:
            return [
                f"token escrow underfunded: holds {held} of {token}, "
                f"owes {escrow}"
            ]
        return []

    def setup(self, spec_hash: str, code_measurement: str,
              min_providers: int = 1, min_samples: int = 1,
              infra_share_bps: int = 1000,
              required_confirmations: int = 1,
              deadline_blocks: int = 0,
              reward_token: str | None = None,
              reward_amount: int = 0) -> None:
        """Deploy one workload.

        The deploying transaction's value becomes the escrowed reward pool.
        ``code_measurement`` is the hex enclave measurement providers will
        demand at attestation time; recording it on-chain is what binds the
        off-chain TEE check to this contract.

        ``deadline_blocks`` > 0 sets an expiry: if the workload has not
        completed within that many blocks of deployment, *anyone* may call
        :meth:`expire` to refund the consumer — so escrowed funds can never
        be stranded by absent providers or executors.

        Rewards are denominated either in the native currency (default:
        the deploy transaction's value is the pool) or in an ERC-20 token
        (Section III-A's choice): pass ``reward_token`` and
        ``reward_amount``, after approving this contract's address for
        that amount — setup pulls the tokens into escrow via
        ``transfer_from``.
        """
        self.require(min_providers >= 1, "need at least one provider")
        self.require(min_samples >= 1, "need at least one sample")
        self.require(0 <= infra_share_bps < BPS, "bad infra share")
        self.require(required_confirmations >= 1,
                     "need at least one confirmation")
        self.require(deadline_blocks >= 0, "bad deadline")
        self.swrite(self.ctx.block.number, "created_in_block")
        self.swrite(deadline_blocks, "deadline_blocks")
        self.swrite(self.ctx.sender, "consumer")
        self.swrite(spec_hash, "spec_hash")
        self.swrite(code_measurement, "code_measurement")
        self.swrite(min_providers, "min_providers")
        self.swrite(min_samples, "min_samples")
        self.swrite(infra_share_bps, "infra_share_bps")
        self.swrite(required_confirmations, "required_confirmations")
        self.swrite(reward_token, "reward_token")
        if reward_token is not None:
            self.require(reward_amount > 0,
                         "token rewards need a positive amount")
            self.require(self.ctx.value == 0,
                         "choose native OR token rewards, not both")
            self.ctx.call(reward_token, "transfer_from",
                          owner=self.ctx.sender, recipient=self.address,
                          amount=reward_amount)
            self.swrite(reward_amount, "escrow")
        else:
            self.swrite(self.ctx.value, "escrow")
        self.swrite(STATE_OPEN, "state")
        self.swrite([], "executors")
        self.swrite({}, "provider_samples")
        self.swrite({}, "provider_executors")
        self.swrite([], "certificates")
        self.swrite({}, "result_votes")
        self.emit("WorkloadCreated", consumer=self.ctx.sender,
                  spec_hash=spec_hash, escrow=self.sread("escrow"),
                  reward_token=reward_token,
                  code_measurement=code_measurement)

    # -- phase 1: executor registration ---------------------------------------

    def register_executor(self, claimed_measurement: str) -> None:
        """An executor opts in, claiming it runs the workload's code.

        The claim must match the recorded measurement; providers verify the
        *actual* attestation quote off-chain before sending data.
        """
        self._require_state(STATE_OPEN)
        self.require(
            claimed_measurement == self.sread("code_measurement"),
            "executor claims a different code measurement",
        )
        executors = self.sread("executors")
        sender = self.ctx.sender
        self.require(sender not in executors, "executor already registered")
        self.swrite(executors + [sender], "executors")
        self.emit("ExecutorRegistered", executor=sender)

    # -- phase 2: participation -------------------------------------------------

    def submit_participation(self, provider: str, certificate_hash: str,
                             data_root: str, item_count: int) -> None:
        """A registered executor records one provider's certified data.

        Mirrors Fig. 2: executors "register their own participation ...
        also submit[ting] the certificates from all the participants who
        sent data to them".
        """
        self._require_state(STATE_OPEN)
        sender = self.ctx.sender
        self.require(sender in self.sread("executors"),
                     "only registered executors may submit participation")
        self.require(item_count >= 1, "certificate covers no items")
        certificates = self.sread("certificates")
        self.require(certificate_hash not in certificates,
                     "certificate already submitted")
        samples = self.sread("provider_samples")
        mapping = self.sread("provider_executors")
        samples[provider] = samples.get(provider, 0) + item_count
        executors_of = mapping.get(provider, [])
        if sender not in executors_of:
            mapping[provider] = executors_of + [sender]
        self.swrite(samples, "provider_samples")
        self.swrite(mapping, "provider_executors")
        self.swrite(certificates + [certificate_hash], "certificates")
        self.emit("ParticipationRecorded", provider=provider,
                  executor=sender, certificate_hash=certificate_hash,
                  data_root=data_root, item_count=item_count)

    # -- phase 3: execution gate ----------------------------------------------------

    def conditions_met(self) -> bool:
        """True when the consumer's preconditions are satisfied."""
        samples = self.sread("provider_samples")
        total = sum(samples.values())
        return (len(samples) >= self.sread("min_providers")
                and total >= self.sread("min_samples"))

    def start_execution(self) -> None:
        """Anyone may trip the gate once the preconditions hold."""
        self._require_state(STATE_OPEN)
        self.require(self.conditions_met(),
                     "workload preconditions are not met")
        self.swrite(STATE_EXECUTING, "state")
        self.emit("ExecutionStarted",
                  providers=len(self.sread("provider_samples")),
                  executors=len(self.sread("executors")))

    # -- phase 4: results and payout ---------------------------------------------------

    def submit_result(self, result_hash: str,
                      provider_weights_bps: dict) -> None:
        """A participating executor votes for a result.

        ``provider_weights_bps`` maps provider addresses to payout weights
        in basis points (executors compute them inside the enclave, e.g.
        from Shapley values).  A vote is (result_hash, weights); payout
        happens when ``required_confirmations`` identical votes accumulate.
        """
        self._require_state(STATE_EXECUTING)
        sender = self.ctx.sender
        self.require(sender in self.sread("executors"),
                     "only registered executors may submit results")
        samples = self.sread("provider_samples")
        for provider, weight in provider_weights_bps.items():
            self.require(provider in samples,
                         f"weight for non-participating provider {provider}")
            self.require(isinstance(weight, int) and weight >= 0,
                         "weights must be non-negative integers")
        self.require(sum(provider_weights_bps.values()) == BPS,
                     "weights must sum to 10000 bps")
        votes = self.sread("result_votes")
        vote_key = result_hash + ":" + repr(sorted(
            provider_weights_bps.items()
        ))
        entry = votes.get(vote_key, {"executors": [], "weights": {}})
        self.require(sender not in entry["executors"],
                     "executor already voted for this result")
        entry["executors"] = entry["executors"] + [sender]
        entry["weights"] = dict(provider_weights_bps)
        entry["result_hash"] = result_hash
        votes[vote_key] = entry
        self.swrite(votes, "result_votes")
        self.emit("ResultSubmitted", executor=sender,
                  result_hash=result_hash,
                  confirmations=len(entry["executors"]))
        if len(entry["executors"]) >= self.sread("required_confirmations"):
            self._finalize(entry)

    def _pay(self, recipient: str, amount: int) -> None:
        """Move reward value: native currency or the ERC-20 pool token."""
        token = self.sread("reward_token")
        if token is None:
            self.ctx.transfer(recipient, amount)
        else:
            self.ctx.call(token, "transfer", recipient=recipient,
                          amount=amount)

    def _finalize(self, winning_vote: dict) -> None:
        """Pay everyone and complete the workload."""
        escrow = self.sread("escrow")
        infra_pool = escrow * self.sread("infra_share_bps") // BPS
        provider_pool = escrow - infra_pool
        weights = winning_vote["weights"]
        # Largest-remainder split of the provider pool by bps weights.
        providers = sorted(weights)
        paid = 0
        amounts: dict[str, int] = {}
        remainders: list[tuple[int, str]] = []
        for provider in providers:
            exact = provider_pool * weights[provider]
            amount = exact // BPS
            amounts[provider] = amount
            paid += amount
            remainders.append((exact % BPS, provider))
        leftover = provider_pool - paid
        for _, provider in sorted(remainders,
                                  key=lambda item: (-item[0], item[1])):
            if leftover <= 0:
                break
            amounts[provider] += 1
            leftover -= 1
        for provider in providers:
            if amounts[provider] > 0:
                self._pay(provider, amounts[provider])
                self.emit("RewardPaid", recipient=provider, role="provider",
                          amount=amounts[provider])
        # Equal split of the infra pool among confirming executors.
        confirmers = sorted(winning_vote["executors"])
        if confirmers and infra_pool > 0:
            base = infra_pool // len(confirmers)
            extra = infra_pool - base * len(confirmers)
            for index, executor in enumerate(confirmers):
                amount = base + (1 if index < extra else 0)
                if amount > 0:
                    self._pay(executor, amount)
                    self.emit("RewardPaid", recipient=executor,
                              role="executor", amount=amount)
        self.swrite(winning_vote["result_hash"], "final_result_hash")
        self.swrite(STATE_COMPLETE, "state")
        self.emit("WorkloadCompleted",
                  result_hash=winning_vote["result_hash"],
                  providers_paid=len(providers))

    # -- cancellation ----------------------------------------------------------------

    def abort(self) -> None:
        """Consumer-only: abandon a workload that can no longer finish.

        Legal while OPEN and while EXECUTING — the recovery engine calls it
        when a session dies after the execution gate tripped (e.g. too many
        crashed executors to reach quorum), so the escrow flows back to the
        consumer instead of being stranded in a contract that will never
        finalize.
        """
        state = self.sread("state")
        self.require(state in (STATE_OPEN, STATE_EXECUTING),
                     "only an unsettled workload can be aborted")
        consumer = self.sread("consumer")
        self.require(self.ctx.sender == consumer,
                     "only the consumer may abort")
        escrow = self.sread("escrow")
        if escrow > 0:
            self._pay(consumer, escrow)
        self.swrite(STATE_CANCELLED, "state")
        self.emit("WorkloadCancelled", consumer=consumer, refunded=escrow,
                  reason="aborted")

    def expire(self) -> None:
        """Refund the consumer after the deadline (anyone may call).

        Only non-complete workloads can expire; a deadline of 0 means no
        expiry.  This is the liveness backstop: escrow cannot be stranded.
        """
        deadline = self.sread("deadline_blocks")
        self.require(deadline > 0, "workload has no deadline")
        state = self.sread("state")
        self.require(state in (STATE_OPEN, STATE_EXECUTING),
                     "workload already settled")
        created = self.sread("created_in_block")
        self.require(
            self.ctx.block.number >= created + deadline,
            "deadline has not passed yet",
        )
        consumer = self.sread("consumer")
        escrow = self.sread("escrow")
        if escrow > 0:
            self._pay(consumer, escrow)
        self.swrite(STATE_CANCELLED, "state")
        self.emit("WorkloadCancelled", consumer=consumer, refunded=escrow,
                  reason="expired")

    # -- views -----------------------------------------------------------------------

    def state(self) -> str:
        """Current lifecycle state."""
        return self.sread("state")

    def escrow(self) -> int:
        """The reward pool held by the contract."""
        return self.sread("escrow")

    def code_measurement(self) -> str:
        """The enclave measurement providers must see at attestation."""
        return self.sread("code_measurement")

    # -- helpers ----------------------------------------------------------------------

    def _require_state(self, expected: str) -> None:
        actual = self.sread("state")
        self.require(
            actual == expected,
            f"operation requires state {expected!r}, but workload is "
            f"{actual!r}",
        )
