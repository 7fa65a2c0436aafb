//! Property-based tests for the simulated network.

use failmpi_net::{ConnId, Gated, NetConfig, NetEvent, Network, Port, ProcId};
use failmpi_sim::SimTime;
use proptest::prelude::*;

/// Builds a pair of connected processes on distinct hosts.
fn connected_pair() -> (Network<u32>, ProcId, ProcId, ConnId) {
    let mut net = Network::new(NetConfig::default());
    let hs = net.add_hosts(2);
    let a = net.spawn_process(hs[0]);
    let b = net.spawn_process(hs[1]);
    assert!(net.listen(b, Port(1)));
    net.connect(SimTime::ZERO, a, hs[1], Port(1), 0);
    let conn = net
        .take_events()
        .find_map(|(_, e)| match e {
            NetEvent::Accepted { conn, .. } => Some(conn),
            _ => None,
        })
        .expect("handshake");
    (net, a, b, conn)
}

proptest! {
    /// FIFO per stream: messages sent in order arrive in order with
    /// non-decreasing delivery times, whatever their sizes and send gaps.
    #[test]
    fn stream_is_fifo(msgs in proptest::collection::vec((0u64..10_000_000, 0u64..1_000_000), 1..60)) {
        let (mut net, a, _b, conn) = connected_pair();
        let mut now = SimTime::from_secs(1);
        for (i, &(bytes, gap_us)) in msgs.iter().enumerate() {
            now += failmpi_sim::SimDuration::from_micros(gap_us);
            prop_assert!(net.send(now, conn, a, i as u32, bytes));
        }
        let evs: Vec<_> = net.take_events().collect();
        prop_assert_eq!(evs.len(), msgs.len());
        let mut last = SimTime::ZERO;
        for (i, (at, ev)) in evs.into_iter().enumerate() {
            prop_assert!(at >= last, "delivery went backwards");
            last = at;
            match ev {
                NetEvent::Delivered { payload, .. } => prop_assert_eq!(payload as usize, i),
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }

    /// Transfer time grows monotonically with message size.
    #[test]
    fn bigger_messages_take_longer(b1 in 1u64..50_000_000, b2 in 1u64..50_000_000) {
        let (small, large) = (b1.min(b2), b1.max(b2));
        let time_for = |bytes: u64| {
            let (mut net, a, _b, conn) = connected_pair();
            net.send(SimTime::from_secs(1), conn, a, 0, bytes);
            let at = net.take_events().next().expect("one delivery").0;
            at
        };
        prop_assert!(time_for(small) <= time_for(large));
    }

    /// Suspension never loses or reorders messages: whatever prefix of the
    /// stream is buffered, resume releases exactly that prefix in order.
    #[test]
    fn suspend_resume_preserves_stream(
        n_msgs in 1usize..30,
        suspend_after in 0usize..30,
    ) {
        let (mut net, a, b, conn) = connected_pair();
        for i in 0..n_msgs {
            net.send(SimTime::from_secs(1), conn, a, i as u32, 1_000);
        }
        let evs: Vec<_> = net.take_events().collect();
        let mut delivered = Vec::new();
        let mut suspended = false;
        for (k, (_, ev)) in evs.into_iter().enumerate() {
            if k == suspend_after {
                net.suspend(b);
                suspended = true;
            }
            match net.gate(ev) {
                Gated::Deliver(NetEvent::Delivered { payload, .. }) => delivered.push(payload),
                Gated::Deliver(_) => {}
                Gated::Buffered => prop_assert!(suspended),
                Gated::Dropped => prop_assert!(false, "nothing should drop"),
            }
        }
        for ev in net.resume(b) {
            if let NetEvent::Delivered { payload, .. } = ev {
                delivered.push(payload);
            }
        }
        prop_assert_eq!(delivered, (0..n_msgs as u32).collect::<Vec<_>>());
    }

    /// After killing any subset of processes, every remaining live peer of a
    /// killed process receives exactly one PeerDied closure per shared stream.
    #[test]
    fn kill_notifies_each_live_peer_once(kill_mask in 0u8..8) {
        let mut net: Network<u32> = Network::new(NetConfig::default());
        let hs = net.add_hosts(3);
        let procs: Vec<ProcId> = hs.iter().map(|&h| net.spawn_process(h)).collect();
        // Full mesh: each higher-id proc listens, lower connects.
        for (i, &p) in procs.iter().enumerate() {
            net.listen(p, Port(10 + i as u16));
        }
        for (i, &p) in procs.iter().enumerate() {
            for (j, &h) in hs.iter().enumerate().skip(i + 1) {
                net.connect(SimTime::ZERO, p, h, Port(10 + j as u16), 0);
            }
        }
        net.take_events();
        let killed: Vec<usize> = (0..3).filter(|i| kill_mask & (1 << i) != 0).collect();
        for &i in &killed {
            net.kill(SimTime::from_secs(1), procs[i]);
        }
        // Route every produced closure through the delivery gate, as the
        // embedding world would: closures addressed to processes that died
        // in the meantime are dropped there.
        let mut delivered = 0usize;
        let closures: Vec<_> = net.take_events().collect();
        for (_, ev) in closures {
            match net.gate(ev) {
                Gated::Deliver(NetEvent::Closed { proc, .. }) => {
                    prop_assert!(net.is_alive(proc));
                    delivered += 1;
                }
                Gated::Deliver(other) => prop_assert!(false, "unexpected {other:?}"),
                Gated::Dropped => {}
                Gated::Buffered => prop_assert!(false, "nobody is suspended"),
            }
        }
        // Each live process shares one stream with each killed one.
        let live: Vec<usize> = (0..3).filter(|i| !killed.contains(i)).collect();
        prop_assert_eq!(delivered, live.len() * killed.len());
    }
}
