"""Tests for the 3GPP procedures on the assembled core."""

import pytest

from repro.cp import (
    FiveGCore,
    HOState,
    ProcedureRunner,
    RegistrationState,
    SystemConfig,
)
from repro.net import Direction, FiveTuple, Packet
from repro.ran import CMState, RMState
from repro.sim import Environment


def build(config=None):
    env = Environment()
    core = FiveGCore(env, config or SystemConfig.l25gc())
    runner = ProcedureRunner(core)
    ue = core.add_ue("imsi-208930000000003")
    return env, core, runner, ue


def run_procedures(env, *procedures):
    results = []

    def scenario():
        for procedure in procedures:
            results.append((yield from procedure))

    env.process(scenario())
    env.run()
    return results


class TestRegistration:
    def test_states_after_registration(self):
        env, core, runner, ue = build()
        (result,) = run_procedures(env, runner.register_ue(ue, gnb_id=1))
        assert ue.rm_state is RMState.REGISTERED
        assert ue.cm_state is CMState.CONNECTED
        assert ue.guti is not None
        amf_ctx = core.amf.context(ue.supi)
        assert amf_ctx.state is RegistrationState.REGISTERED
        assert amf_ctx.serving_gnb_id == 1
        assert result.event == "registration"
        assert result.duration > 0

    def test_policy_created(self):
        env, core, runner, ue = build()
        run_procedures(env, runner.register_ue(ue))
        assert ue.supi in core.pcf.am_policies

    def test_messages_counted(self):
        env, core, runner, ue = build()
        (result,) = run_procedures(env, runner.register_ue(ue))
        assert result.messages == core.bus.total_messages()
        assert result.messages >= 20  # auth + security + policy + accept


class TestSessionEstablishment:
    def test_session_state(self):
        env, core, runner, ue = build()
        results = run_procedures(
            env, runner.register_ue(ue), runner.establish_session(ue)
        )
        session_result = results[1]
        detail = session_result.detail
        assert detail["ue_ip"] != 0
        # The UPF has the session installed under both keys.
        session = core.sessions.by_seid(detail["seid"])
        assert session is not None
        assert core.sessions.by_teid(detail["ul_teid"]) is session
        assert core.sessions.by_ue_ip(detail["ue_ip"]) is session
        # And the UE knows its session.
        assert ue.session(1).ue_ip == detail["ue_ip"]

    def test_data_flows_after_establishment(self):
        env, core, runner, ue = build()
        results = run_procedures(
            env, runner.register_ue(ue), runner.establish_session(ue)
        )
        detail = results[1].detail
        core.inject_downlink(
            Packet(
                direction=Direction.DOWNLINK,
                flow=FiveTuple(src_ip=0x08080808, dst_ip=detail["ue_ip"],
                               src_port=80, dst_port=4000),
                created_at=env.now,
            )
        )
        core.inject_uplink(
            Packet(teid=detail["ul_teid"],
                   flow=FiveTuple(src_ip=detail["ue_ip"], dst_ip=0x08080808,
                                  src_port=4000, dst_port=80))
        )
        env.run()
        assert len(ue.received) == 1
        assert len(core.dn_received) == 1

    def test_unique_ue_ips(self):
        env = Environment()
        core = FiveGCore(env, SystemConfig.l25gc())
        runner = ProcedureRunner(core)
        ues = [core.add_ue(f"imsi-20893000000000{i}") for i in range(2)]
        ips = []

        def lifecycle(ue):
            yield from runner.register_ue(ue)
            result = yield from runner.establish_session(ue)
            ips.append(result.detail["ue_ip"])

        for ue in ues:
            env.process(lifecycle(ue))
        env.run()
        assert len(set(ips)) == 2


class TestDeregistration:
    def test_reregistered_supi_resolves_its_new_session(self):
        """Deregistration releases the SM context, so a SUPI that
        registers again resolves its new session, and churn leaves no
        context behind."""
        env, core, runner, ue = build()
        for _ in range(2):
            run_procedures(env, runner.register_ue(ue))
            (established,) = run_procedures(env, runner.establish_session(ue))
            sm = core.smf.context_for(ue.supi, 1)
            assert sm.seid == established.detail["seid"]
            run_procedures(env, runner.deregister_ue(ue))
            assert core.smf.sm_contexts == {}
        with pytest.raises(KeyError):
            core.smf.context_for(ue.supi, 1)

    def test_restore_rebuilds_the_session_index(self):
        env, core, runner, ue = build()
        run_procedures(env, runner.register_ue(ue), runner.establish_session(ue))
        snapshot = core.smf.snapshot()
        seid = core.smf.context_for(ue.supi, 1).seid
        core.smf.restore(snapshot)
        restored = core.smf.context_for(ue.supi, 1)
        assert restored.seid == seid
        assert restored is core.smf.sm_contexts[seid]


class TestIdleAndPaging:
    def _idle_ue(self, config=None):
        env, core, runner, ue = build(config)
        run_procedures(
            env,
            runner.register_ue(ue),
            runner.establish_session(ue),
            runner.release_to_idle(ue),
        )
        return env, core, runner, ue

    def test_idle_buffers_downlink(self):
        env, core, runner, ue = self._idle_ue()
        assert ue.cm_state is CMState.IDLE
        session = core.sessions.sessions()[0]
        core.inject_downlink(
            Packet(
                direction=Direction.DOWNLINK,
                flow=FiveTuple(src_ip=0x08080808,
                               dst_ip=session.ue_ip,
                               src_port=80, dst_port=4000),
                created_at=env.now,
            )
        )
        assert len(session.buffer) == 1
        assert ue.received == []

    def test_report_triggers_paging_hook(self):
        env, core, runner, ue = self._idle_ue()
        session = core.sessions.sessions()[0]
        reports = []
        core.on_report = reports.append
        core.inject_downlink(
            Packet(direction=Direction.DOWNLINK,
                   flow=FiveTuple(src_ip=1, dst_ip=session.ue_ip),
                   created_at=env.now)
        )
        env.run()
        assert len(reports) == 1
        assert reports[0].seid == session.seid

    def test_paging_wakes_and_drains(self):
        env, core, runner, ue = self._idle_ue()
        session = core.sessions.sessions()[0]

        def on_report(report):
            def page():
                yield from runner.page_ue(ue)

            env.process(page())

        core.on_report = on_report
        packet = Packet(
            direction=Direction.DOWNLINK,
            flow=FiveTuple(src_ip=1, dst_ip=session.ue_ip,
                           src_port=80, dst_port=4000),
            created_at=env.now,
        )
        core.inject_downlink(packet)
        env.run()
        assert ue.cm_state is CMState.CONNECTED
        assert len(ue.received) == 1
        assert session.buffer.is_empty


class TestHandover:
    def _connected_ue(self, config=None):
        env, core, runner, ue = build(config)
        run_procedures(
            env, runner.register_ue(ue), runner.establish_session(ue)
        )
        return env, core, runner, ue

    def test_handover_moves_ue_and_path(self):
        env, core, runner, ue = self._connected_ue()
        (result,) = run_procedures(env, runner.handover(ue, target_gnb_id=2))
        assert ue.serving_gnb_id == 2
        assert core.gnbs[2].is_connected(ue)
        assert not core.gnbs[1].is_connected(ue)
        sm = core.smf.context_for(ue.supi, 1)
        assert sm.ho_state is HOState.COMPLETED
        assert sm.gnb_address == core.gnbs[2].address
        assert sm.dl_teid == result.detail["target_dl_teid"]

    def test_data_follows_to_target(self):
        env, core, runner, ue = self._connected_ue()
        run_procedures(env, runner.handover(ue, target_gnb_id=2))
        session = core.sessions.sessions()[0]
        core.inject_downlink(
            Packet(direction=Direction.DOWNLINK,
                   flow=FiveTuple(src_ip=1, dst_ip=session.ue_ip,
                                  src_port=80, dst_port=4000),
                   created_at=env.now)
        )
        env.run()
        assert core.gnbs[2].delivered == 1
        assert core.gnbs[1].delivered == 0

    def test_smart_buffering_holds_during_handover(self):
        """L25GC: DL packets arriving mid-handover are buffered at the
        UPF and delivered, in order, after the path switch."""
        env, core, runner, ue = self._connected_ue()
        session = core.sessions.sessions()[0]
        sequences = []

        def traffic():
            for seq in range(30):
                core.inject_downlink(
                    Packet(direction=Direction.DOWNLINK, seq=seq,
                           flow=FiveTuple(src_ip=1, dst_ip=session.ue_ip,
                                          src_port=80, dst_port=4000),
                           created_at=env.now)
                )
                yield env.timeout(0.01)

        def do_handover():
            yield env.timeout(0.05)
            yield from runner.handover(ue, target_gnb_id=2)

        env.process(traffic())
        env.process(do_handover())
        env.run()
        received = [packet.seq for packet in ue.received]
        assert received == sorted(received)  # in-order delivery (§3.3)
        assert len(received) == 30  # nothing lost
        assert core.upf_u.stats.buffered > 0

    def test_3gpp_mode_buffers_at_source_gnb(self):
        """With smart buffering off, the source gNB buffers and the
        drained packets hairpin back through the UPF."""
        config = SystemConfig.l25gc()
        config.smart_handover_buffering = False
        config.name = "l25gc-no-smart"
        env, core, runner, ue = self._connected_ue(config)
        session = core.sessions.sessions()[0]

        def traffic():
            for seq in range(30):
                core.inject_downlink(
                    Packet(direction=Direction.DOWNLINK, seq=seq,
                           flow=FiveTuple(src_ip=1, dst_ip=session.ue_ip,
                                          src_port=80, dst_port=4000),
                           created_at=env.now)
                )
                yield env.timeout(0.01)

        results = []

        def do_handover():
            yield env.timeout(0.05)
            results.append(
                (yield from runner.handover(ue, target_gnb_id=2))
            )

        env.process(traffic())
        env.process(do_handover())
        env.run()
        assert results[0].detail["hairpinned"] > 0
        assert core.upf_u.stats.buffered == 0  # UPF did not buffer


class TestAcrossSystems:
    @pytest.mark.parametrize(
        "factory", [SystemConfig.free5gc, SystemConfig.onvm_upf,
                    SystemConfig.l25gc],
        ids=["free5gc", "onvm-upf", "l25gc"],
    )
    def test_full_lifecycle_all_systems(self, factory):
        """The same 3GPP sequences complete on every system."""
        env, core, runner, ue = build(factory())
        results = run_procedures(
            env,
            runner.register_ue(ue),
            runner.establish_session(ue),
            runner.handover(ue, target_gnb_id=2),
            runner.release_to_idle(ue),
            runner.page_ue(ue),
        )
        events = [result.event for result in results]
        assert events == [
            "registration", "session-request", "handover",
            "an-release", "paging",
        ]
        assert ue.cm_state is CMState.CONNECTED
        assert ue.serving_gnb_id == 2

    def test_message_sequences_identical_across_systems(self):
        """3GPP compliance: the *names* of exchanged messages match
        between free5GC and L25GC; only channels differ."""

        def trace(factory):
            env, core, runner, ue = build(factory())
            run_procedures(
                env, runner.register_ue(ue), runner.establish_session(ue)
            )
            return [record.name for record in core.bus.log]

        assert trace(SystemConfig.free5gc) == trace(SystemConfig.l25gc)
