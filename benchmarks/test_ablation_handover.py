"""Ablation: session continuity across an X2 handover.

Not evaluated in the paper (single-cell testbeds), but the architecture
claims it for free: the SGW-U anchors each bearer, so a dedicated MEC
bearer survives a handover with its local gateways -- and the CI
session's latency -- intact.  This bench runs an AR session through a
mid-session handover and compares per-frame latency before and after,
plus the signalling bill.
"""

import numpy as np

from repro.apps.workload import CheckpointWorkload
from repro.baselines import build_deployment
from repro.vision.camera import R720x480

FRAMES = 12


def run_with_handover(scenario, db):
    deployment = build_deployment("acacia", db, scenario, seed=21)
    network = deployment.network
    network.add_enb("enb1")
    checkpoint = scenario.checkpoints[4]
    section = scenario.section_of_subsection(checkpoint.subsection)
    deployment.customer.move_to(checkpoint.position)
    deployment.customer.open([section])
    network.sim.run(until=32.0)
    assert deployment.customer.session is not None

    workload = CheckpointWorkload(scenario, db, seed=21,
                                  frames_per_object=FRAMES,
                                  resolution=R720x480)
    sample = workload.sample(checkpoint)
    session = deployment.new_session(iter(sample.frames),
                                     resolution=R720x480,
                                     max_frames=FRAMES)
    session.start(at=network.sim.now)

    # hand the customer over to the neighbouring cell mid-session
    handover_at = network.sim.now + FRAMES / 2 * 0.3
    holder = {}

    def do_handover():
        holder["result"] = network.handover(deployment.ue, "enb1")

    network.sim.schedule_at(handover_at, do_handover)
    network.sim.run(until=network.sim.now + 60.0)

    assert len(session.records) == FRAMES
    half = FRAMES // 2
    before = [r.total_time for r in session.records[:half]]
    after = [r.total_time for r in session.records[half:]]
    return {
        "before_ms": float(np.mean(before)) * 1e3,
        "after_ms": float(np.mean(after)) * 1e3,
        "matched": all(r.matched == sample.record.name
                       for r in session.records),
        "ho_messages": holder["result"].message_count,
        "ho_bytes": holder["result"].byte_count,
        "ho_elapsed_ms": holder["result"].elapsed * 1e3,
    }


def test_ablation_handover(scenario, db, report):
    result = run_with_handover(scenario, db)

    r = report("ablation_handover",
               "Ablation: AR session continuity across an X2 handover")
    r.table(["metric", "value"], [
        ["mean frame latency before HO", f"{result['before_ms']:.0f} ms"],
        ["mean frame latency after HO", f"{result['after_ms']:.0f} ms"],
        ["all frames matched correctly", str(result["matched"])],
        ["handover signalling", f"{result['ho_messages']} messages, "
                                f"{result['ho_bytes']} bytes"],
        ["handover control latency", f"{result['ho_elapsed_ms']:.0f} ms"],
    ])

    assert result["matched"]
    # latency after the handover stays within 20% of the pre-HO level:
    # the MEC anchoring survived the cell change
    assert abs(result["after_ms"] - result["before_ms"]) < \
        0.2 * result["before_ms"]
    assert result["ho_elapsed_ms"] < 60
