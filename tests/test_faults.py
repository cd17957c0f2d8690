"""Fault-injection subsystem tests.

Plan validation, injector scheduling, the signalling fabric's
perturbation/crash handling, and -- most importantly -- that the
control plane *terminates* under injected faults: lost messages end as
``timeout`` outcomes when retransmission is off, as ``retried-ok``
when it is on, and only the legacy no-policy fabric can deadlock
(which the engine then detects instead of hanging).
"""

import pytest

from repro.core.config import (NetworkConfig, ResilienceConfig,
                               SignallingConfig)
from repro.core.events import SessionDegraded, SessionRestored
from repro.core.mrs import MecRegistrationServer
from repro.core.network import MobileNetwork
from repro.core.service import CIService
from repro.epc.messages import MessageType
from repro.epc.signalling import (ChannelPerturbation, RetryPolicy,
                                  SignallingFabric, SignallingTimeout)
from repro.faults import (ChannelDelaySpike, ChannelLoss, EntityCrash,
                          EntityRestart, FaultCleared, FaultInjected,
                          FaultInjector, FaultPlan, LinkDown, LinkFlap,
                          McServerOutage)
from repro.sim.engine import Simulator
from repro.sim.hooks import PacketDropped
from tests.recording import MessageRecorder


def build(seed=0, **cfg):
    return MobileNetwork(NetworkConfig(seed=seed, **cfg))


def lossy(network, rate=1.0, channel="*"):
    """Drop every matching signalling delivery (deterministically)."""
    pert = ChannelPerturbation(kind="loss", rate=rate,
                               rng=network.ctx.rng("test.loss"))
    network.fabric.add_perturbation(channel, pert)
    return pert


# -- plan validation ------------------------------------------------------

class TestFaultPlan:
    def test_entries_must_be_specs(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            FaultPlan(("not a spec",))

    def test_negative_activation_time(self):
        with pytest.raises(ValueError, match="at must be >= 0"):
            LinkDown(link="s11", at=-1.0)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            ChannelLoss(rate=1.5)

    def test_flap_window_and_duty(self):
        with pytest.raises(ValueError, match="until"):
            LinkFlap(link="s11", period=1.0, at=2.0, until=1.0)
        with pytest.raises(ValueError, match="duty"):
            LinkFlap(link="s11", period=1.0, duty=1.0, until=5.0)

    def test_delay_spike_positive(self):
        with pytest.raises(ValueError, match="extra_delay"):
            ChannelDelaySpike(extra_delay=0.0)

    def test_durations_positive(self):
        for spec in (LinkDown, EntityCrash, McServerOutage):
            kwargs = ({"link": "x"} if spec is LinkDown else
                      {"entity": "x"} if spec is EntityCrash else
                      {"server": "x"})
            with pytest.raises(ValueError, match="duration"):
                spec(duration=0.0, **kwargs)

    def test_plan_is_iterable(self):
        plan = FaultPlan((LinkDown(link="s11"),))
        assert len(plan) == 1 and bool(plan)
        assert not FaultPlan()


# -- the injector ---------------------------------------------------------

class TestInjector:
    def test_unknown_link_fails_at_arm_time(self):
        network = build()
        injector = FaultInjector(network, FaultPlan((
            LinkDown(link="no-such-link"),)))
        with pytest.raises(KeyError, match="no-such-link"):
            injector.arm()

    def test_rearming_is_an_error(self):
        network = build()
        injector = FaultInjector(network, FaultPlan()).arm()
        with pytest.raises(RuntimeError, match="armed"):
            injector.arm()

    def test_link_down_window(self):
        network = build()
        network.add_server("srv", echo=True)
        link = network.links["sgi.srv"]
        events = []
        network.hooks.on(FaultInjected, lambda e: events.append(("in", e)))
        network.hooks.on(FaultCleared, lambda e: events.append(("out", e)))
        injector = FaultInjector(network, FaultPlan((
            LinkDown(link="sgi.srv", at=0.5, duration=1.0),))).arm()
        network.sim.schedule(0.6, lambda: events.append(("up?", link.up)))
        network.sim.run()
        assert link.up                       # recovered by end of run
        assert ("up?", False) in events      # and was down mid-window
        assert injector.injected == injector.cleared == 1
        kinds = [k for k, _ in events if k in ("in", "out")]
        assert kinds == ["in", "out"]

    def test_link_flap_cycles(self):
        network = build()
        network.add_server("srv", echo=True)
        injector = FaultInjector(network, FaultPlan((
            LinkFlap(link="sgi.srv", period=1.0, duty=0.5, until=3.0),
        ))).arm()
        network.sim.run()
        assert injector.injected == 3        # down at t=0, 1, 2
        assert injector.cleared == 3         # up at t=0.5, 1.5, 2.5
        assert network.links["sgi.srv"].up

    def test_signalling_link_resolution(self):
        network = build()
        link = FaultInjector(network, FaultPlan())._link("sig.s11")
        assert link is network.fabric.channels["s11"].link


# -- signalling under injected loss --------------------------------------

class TestSignallingUnderLoss:
    def test_lost_messages_time_out_without_retries(self):
        network = build(resilience=ResilienceConfig(enabled=False))
        drops = []
        network.hooks.on(PacketDropped, drops.append)
        lossy(network)
        ue = network.add_ue()                # returns: no deadlock
        assert not ue.attached
        result = ue.attach_result
        assert result.outcome == "timeout"
        assert result.retries == 0 and result.timer_expiries == 1
        assert "undelivered after 1 attempt" in result.failure
        assert network.fabric.drops == {"injected-loss": 1}
        assert [d.reason for d in drops] == ["injected-loss"]

    def test_retries_exhaust_to_timeout_under_total_loss(self):
        network = build(resilience=ResilienceConfig(max_retries=2))
        lossy(network)
        ue = network.add_ue()
        result = ue.attach_result
        assert result.outcome == "timeout"
        assert result.retries == 2 and result.timer_expiries == 3
        assert network.fabric.retransmissions == 2

    def test_retries_recover_partial_loss(self):
        network = build()
        # drop only the first delivery ever attempted
        first = iter([0.0] + [1.0] * 999)

        class Rng:
            def random(self):
                return next(first)

        network.fabric.add_perturbation(
            "*", ChannelPerturbation(kind="loss", rate=0.5, rng=Rng()))
        ue = network.add_ue()
        assert ue.attached
        assert ue.attach_result.outcome == "retried-ok"
        assert ue.attach_result.retries == 1
        assert network.fabric.retransmissions == 1

    def test_timeout_rejection_propagates_through_generators(self):
        sim = Simulator()
        fabric = SignallingFabric(sim, SignallingConfig().transports())
        fabric.open_channel("s11", "GTPv2", ["mme"], ["sgw-c"])
        fabric.add_perturbation("*", ChannelPerturbation(
            kind="loss", rate=1.0, rng=_always()))
        mtype = MessageType("GTPv2", "Probe", 100)
        policy = RetryPolicy(max_retries=1, default_timer=0.5)

        def proc():
            yield fabric.send_reliable(mtype, "mme", "sgw-c", policy=policy)

        with pytest.raises(SignallingTimeout) as exc:
            sim.run_until_complete(sim.spawn(proc()))
        assert exc.value.attempts == 2
        assert exc.value.mtype is mtype

    def test_delay_spike_duplicate_is_suppressed(self):
        sim = Simulator()
        fabric = SignallingFabric(sim, SignallingConfig().transports())
        recorder = MessageRecorder(sim.hooks)
        fabric.open_channel("s11", "GTPv2", ["mme"], ["sgw-c"])
        # every delivery held back past the retransmission timer: the
        # original and the retry both arrive, the second is a duplicate
        fabric.add_perturbation("*", ChannelPerturbation(
            kind="delay", probability=1.0, extra_delay=1.0, rng=_always()))
        mtype = MessageType("GTPv2", "Probe", 100)
        policy = RetryPolicy(default_timer=0.5)
        delivered = []

        def proc():
            message = yield fabric.send_reliable(
                mtype, "mme", "sgw-c", policy=policy,
                on_deliver=delivered.append)
            return message

        sim.run_until_complete(sim.spawn(proc()))
        sim.run()            # drain the retry's still-in-flight delivery
        assert fabric.retransmissions == 1
        assert fabric.duplicates == 1
        assert len(delivered) == 1           # exactly-once side effects
        assert len(recorder) == 1            # duplicate never delivered


class _always:
    """An 'rng' whose draws always fire the perturbation."""

    def random(self):
        return 0.0


# -- entity crashes -------------------------------------------------------

class TestEntityFaults:
    def test_crashed_party_drops_with_entity_down(self):
        network = build(resilience=ResilienceConfig(enabled=False))
        FaultInjector(network, FaultPlan((EntityCrash(entity="mme"),))).arm()
        network.sim.run()                    # crash fires at t=0
        ue = network.add_ue()
        assert not ue.attached
        assert ue.attach_result.outcome == "timeout"
        assert network.fabric.drops["entity-down"] >= 1

    def test_restart_heals_with_retries(self):
        network = build()
        FaultInjector(network, FaultPlan((
            EntityCrash(entity="mme", duration=2.0),))).arm()
        ue = network.add_ue()
        assert ue.attached
        assert ue.attach_result.outcome == "retried-ok"
        assert network.fabric.drops["entity-down"] >= 1

    def test_explicit_restart_spec(self):
        network = build()
        injector = FaultInjector(network, FaultPlan((
            EntityCrash(entity="mme"),
            EntityRestart(entity="mme", at=1.0),))).arm()
        network.sim.run()
        assert "mme" not in network.fabric.down_parties
        assert injector.injected == injector.cleared == 1


# -- MRS graceful degradation --------------------------------------------

class TestMrsDegradation:
    def build_mrs(self, two_sites):
        network = build()
        network.add_mec_site("mec-a")
        network.add_server("srv-a", site_name="mec-a", echo=True)
        mrs = MecRegistrationServer(network)
        mrs.register_service(CIService("svc", "svc-discovery"))
        mrs.deploy_instance("svc", "srv-a", "mec-a", serves_enbs={"enb0"})
        if two_sites:
            network.add_mec_site("mec-b")
            network.add_server("srv-b", site_name="mec-b", echo=True)
            mrs.deploy_instance("svc", "srv-b", "mec-b",
                                serves_enbs={"enb1"})
        ue = network.add_ue()
        mrs.request_connectivity(ue, "svc")
        events = []
        network.hooks.on(SessionDegraded, events.append)
        network.hooks.on(SessionRestored, events.append)
        return network, mrs, ue, events

    def test_outage_falls_back_to_central_then_restores(self):
        network, mrs, ue, events = self.build_mrs(two_sites=False)
        FaultInjector(network, FaultPlan((
            McServerOutage(server="srv-a", at=1.0, duration=2.0),))).arm()
        network.sim.run()
        degraded, restored = events
        assert isinstance(degraded, SessionDegraded)
        assert degraded.mode == "central-fallback"
        assert isinstance(restored, SessionRestored)
        assert not mrs.degraded
        session = mrs.session_for(ue, "svc")
        assert session.instance.server_name == "srv-a"
        assert [b for b in ue.bearers if not b.default]

    def test_outage_relocates_to_surviving_instance(self):
        network, mrs, ue, events = self.build_mrs(two_sites=True)
        FaultInjector(network, FaultPlan((
            McServerOutage(server="srv-a", at=1.0),))).arm()
        network.sim.run()
        assert [e.mode for e in events
                if isinstance(e, SessionDegraded)] == ["relocated"]
        session = mrs.session_for(ue, "svc")
        assert session.instance.server_name == "srv-b"
        assert mrs.degraded          # still degraded: no recovery scheduled

    def test_relocate_session_during_target_outage_falls_back(self):
        """relocate_session with the target's server down must pick a
        healthy instance instead of stranding the session."""
        network, mrs, ue, events = self.build_mrs(two_sites=True)
        network.add_enb("enb1")
        FaultInjector(network, FaultPlan((
            McServerOutage(server="srv-b", at=0.5),))).arm()
        network.sim.run()
        # the UE moves to enb1, whose closest instance (srv-b) is dead
        network.handover(ue, "enb1")
        session = mrs.relocate_session(ue, "svc")
        assert session is not None
        assert session is mrs.session_for(ue, "svc")
        assert session.instance.server_name == "srv-a"
        bearer = ue.bearers.bearers[session.ebi]
        assert bearer.active and bearer.gateway_site == "mec-a"

    def test_relocate_session_all_instances_down_keeps_session(self):
        network, mrs, ue, events = self.build_mrs(two_sites=True)
        network.add_enb("enb1")
        FaultInjector(network, FaultPlan((
            McServerOutage(server="srv-a", at=0.5),
            McServerOutage(server="srv-b", at=0.5),))).arm()
        network.sim.run()
        # both instances dead: the degradation path has already moved
        # the session to central fallback; relocate_session must not
        # crash or strand what remains
        network.handover(ue, "enb1")
        mrs.relocate_session(ue, "svc")
        assert (ue.imsi, "svc") in mrs.degraded

    def test_relocated_session_returns_home_on_recovery(self):
        network, mrs, ue, events = self.build_mrs(two_sites=True)
        FaultInjector(network, FaultPlan((
            McServerOutage(server="srv-a", at=1.0, duration=2.0),))).arm()
        network.sim.run()
        assert [type(e).__name__ for e in events] == [
            "SessionDegraded", "SessionRestored"]
        # srv-a serves enb0, so recovery moves the session back
        assert mrs.session_for(ue, "svc").instance.server_name == "srv-a"
        assert not mrs.degraded
