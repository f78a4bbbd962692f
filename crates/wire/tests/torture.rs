//! Loss / partial-write torture for the batch transport stack.
//!
//! A chaos transport moves frames between endpoints as a **raw byte
//! stream** that it deliberately mangles within the contract:
//!
//! * reads hand bytes to the receiver in arbitrary-size chunks (down to
//!   one byte), so every frame crosses chunk boundaries at every offset —
//!   [`BytesAssembler`] must re-frame all of it;
//! * sends randomly report [`TransportError::Backpressure`] (the batch
//!   `WouldBlock`) or accept only a prefix of the batch, so callers must
//!   exercise the partial-accept / retry protocol.
//!
//! Two layers are proven end-to-end, with `proptest!` sweeping the chaos
//! parameters (seed, backpressure rate, chunk size, partial accepts):
//!
//! 1. a direct sender → receiver stream: every frame arrives intact, in
//!    order, decoding to the original message;
//! 2. a [`WireNet`] ping-pong: the runner's pending/retry queue plus the
//!    per-class error counters deliver the protocol despite the chaos.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use simnet::{Ctx, NodeId, Rng64};
use wire::{
    decode_frame_bytes, encode_frame, BytesAssembler, Decode, Encode, Readiness, Transport,
    TransportError, WireNet,
};

/// Tunable misbehaviour, all within the `Transport` contract.
#[derive(Clone, Copy, Debug)]
struct Chaos {
    /// Percent of `send_batch` calls that report `Backpressure`.
    backpressure_pct: u64,
    /// Upper bound on bytes moved per read rotation (1 = byte-by-byte).
    max_chunk: usize,
    /// Accept random prefixes of multi-frame batches.
    partial_accepts: bool,
}

type Streams = Arc<Mutex<HashMap<NodeId, Arc<Mutex<VecDeque<u8>>>>>>;

/// Hub of chaos endpoints: a shared byte stream per node.
#[derive(Clone)]
struct ChaosHub {
    streams: Streams,
    chaos: Chaos,
}

impl ChaosHub {
    fn new(chaos: Chaos) -> Self {
        ChaosHub {
            streams: Streams::default(),
            chaos,
        }
    }

    fn endpoint(&self, me: NodeId, seed: u64) -> ChaosTransport {
        let inbound = Arc::new(Mutex::new(VecDeque::new()));
        self.streams.lock().unwrap().insert(me, inbound.clone());
        ChaosTransport {
            streams: self.streams.clone(),
            inbound,
            asm: BytesAssembler::new(),
            ready: VecDeque::new(),
            rng: Rng64::new(seed ^ (me.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            chaos: self.chaos,
        }
    }

    /// Client-path injection: append a complete frame, no chaos.
    fn send(&self, to: NodeId, frame: &[u8]) -> Result<(), TransportError> {
        let streams = self.streams.lock().unwrap();
        let dest = streams.get(&to).ok_or(TransportError::UnknownPeer(to))?;
        dest.lock().unwrap().extend(frame.iter().copied());
        Ok(())
    }
}

struct ChaosTransport {
    streams: Streams,
    inbound: Arc<Mutex<VecDeque<u8>>>,
    asm: BytesAssembler,
    ready: VecDeque<Bytes>,
    rng: Rng64,
    chaos: Chaos,
}

impl ChaosTransport {
    /// Pull inbound bytes through the assembler in random-size chunks.
    fn rotate(&mut self) {
        loop {
            let chunk: Bytes = {
                let mut stream = self.inbound.lock().unwrap();
                if stream.is_empty() {
                    break;
                }
                let take = 1 + self.rng.gen_below(self.chaos.max_chunk as u64) as usize;
                let take = take.min(stream.len());
                stream.drain(..take).collect::<Vec<u8>>().into()
            };
            self.asm.push(chunk);
            while let Some(f) = self.asm.next_frame().expect("streams are never corrupt") {
                self.ready.push_back(f);
            }
        }
    }
}

impl Transport for ChaosTransport {
    fn send_batch(&mut self, to: NodeId, frames: &[Bytes]) -> Result<usize, TransportError> {
        assert!(!frames.is_empty(), "callers never send empty batches");
        if self.rng.gen_below(100) < self.chaos.backpressure_pct {
            return Err(TransportError::Backpressure);
        }
        let accept = if self.chaos.partial_accepts && frames.len() > 1 {
            1 + self.rng.gen_below(frames.len() as u64) as usize
        } else {
            frames.len()
        };
        let streams = self.streams.lock().unwrap();
        let dest = streams.get(&to).ok_or(TransportError::UnknownPeer(to))?;
        let mut dest = dest.lock().unwrap();
        for frame in &frames[..accept] {
            dest.extend(frame.as_ref().iter().copied());
        }
        Ok(accept)
    }

    fn recv_batch(&mut self, out: &mut Vec<Bytes>, max: usize) -> usize {
        let n = self.ready.len().min(max);
        out.extend(self.ready.drain(..n));
        n
    }

    fn poll(&mut self, timeout: Duration) -> Readiness {
        self.rotate();
        if self.ready.is_empty() && !timeout.is_zero() {
            std::thread::sleep(timeout.min(Duration::from_micros(200)));
            self.rotate();
        }
        Readiness {
            readable: !self.ready.is_empty(),
            writable: true,
        }
    }
}

// ---- layer 1: raw stream integrity ----------------------------------------

/// Push `count` varied-size frames through a chaos pair with the caller
/// running the documented retry protocol; every frame must arrive
/// intact and in order.
fn stream_survives(seed: u64, chaos: Chaos, count: u64) {
    let hub = ChaosHub::new(chaos);
    let a = NodeId(0);
    let b = NodeId(1);
    let mut tx = hub.endpoint(a, seed);
    let mut rx = hub.endpoint(b, seed.wrapping_add(1));

    let msgs: Vec<Vec<u8>> = (0..count)
        .map(|i| (0..(i * 37) % 256).map(|j| (i + j) as u8).collect())
        .collect();
    let frames: Vec<Bytes> = msgs
        .iter()
        .map(|m| Bytes::from(encode_frame(a, &Bytes::from(m.clone()))))
        .collect();

    let mut sent = 0;
    let mut got: Vec<(NodeId, Bytes)> = Vec::new();
    let mut buf = Vec::new();
    while got.len() < msgs.len() {
        if sent < frames.len() {
            match tx.send_batch(b, &frames[sent..]) {
                Ok(n) => sent += n,
                Err(TransportError::Backpressure) => {} // retry next round
                Err(e) => panic!("unexpected transport error: {e}"),
            }
        }
        rx.poll(Duration::ZERO);
        buf.clear();
        rx.recv_batch(&mut buf, 16);
        for frame in buf.drain(..) {
            got.push(decode_frame_bytes::<Bytes>(&frame).expect("frame intact"));
        }
    }
    for (i, ((from, payload), want)) in got.iter().zip(&msgs).enumerate() {
        assert_eq!(*from, a, "frame {i} sender");
        assert_eq!(payload.as_ref(), want.as_slice(), "frame {i} payload");
    }
}

// ---- layer 2: WireNet over chaos endpoints --------------------------------

#[derive(Debug)]
enum Msg {
    Ping(u32),
    Pong(u32),
}

impl Encode for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Ping(n) => {
                out.push(0);
                n.encode(out);
            }
            Msg::Pong(n) => {
                out.push(1);
                n.encode(out);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Msg::Ping(n) | Msg::Pong(n) => n.encoded_len(),
        }
    }
}

impl Decode for Msg {
    fn decode(r: &mut wire::Reader<'_>) -> Result<Self, wire::WireError> {
        match r.read_u8()? {
            0 => Ok(Msg::Ping(u32::decode(r)?)),
            1 => Ok(Msg::Pong(u32::decode(r)?)),
            tag => Err(wire::WireError::BadTag { what: "Msg", tag }),
        }
    }
}

struct Echo {
    pongs: u32,
    ticks: u32,
    peer: Option<NodeId>,
}

impl simnet::Process<Msg> for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer(simnet::Duration::from_millis(2), 1);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Ping(n) => ctx.send(from, Msg::Pong(n)),
            Msg::Pong(_) => self.pongs += 1,
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        if tag == 1 {
            self.ticks += 1;
            if let Some(peer) = self.peer {
                ctx.send(peer, Msg::Ping(self.ticks));
            }
            if self.ticks < 5 {
                ctx.set_timer(simnet::Duration::from_millis(2), 1);
            }
        }
    }
}

/// The full runner over chaos endpoints: despite injected backpressure
/// and byte-level re-chunking, the pending/retry queue delivers the
/// whole ping-pong exchange.
fn wirenet_survives(seed: u64, chaos: Chaos) {
    let hub = ChaosHub::new(chaos);
    let make = hub.clone();
    let inj = hub.clone();
    let mut net: WireNet<Msg> = WireNet::new(
        seed,
        Box::new(move |me| Box::new(make.endpoint(me, seed)) as Box<dyn Transport>),
        Box::new(move |to, frame| inj.send(to, frame)),
    );
    let b = net.add_node(Echo {
        pongs: 0,
        ticks: 0,
        peer: None,
    });
    let a = net.add_node(Echo {
        pongs: 0,
        ticks: 0,
        peer: Some(b),
    });
    let ok = net.run_until(Duration::from_secs(20), |n| {
        n.node_as::<Echo>(a).is_some_and(|e| e.pongs == 5)
    });
    assert!(ok, "all 5 pongs delivered through the chaos transport");
    // Injected backpressure must have been counted under its own class,
    // never under an unrelated one.
    for id in [a, b] {
        assert_eq!(net.metrics(id).counter("wire.send_err.unknown_peer"), 0);
        assert_eq!(net.metrics(id).counter("wire.send_err.io"), 0);
        assert_eq!(net.metrics(id).counter("wire.decode_errors"), 0);
    }
    if chaos.backpressure_pct >= 40 {
        let stalls = net.metrics(a).counter("wire.send_err.backpressure")
            + net.metrics(b).counter("wire.send_err.backpressure");
        assert!(
            stalls > 0,
            "heavy injected backpressure shows up in metrics"
        );
    }
}

// ---- sweeps ---------------------------------------------------------------

#[test]
fn byte_by_byte_stream_with_heavy_backpressure() {
    stream_survives(
        7,
        Chaos {
            backpressure_pct: 50,
            max_chunk: 1,
            partial_accepts: true,
        },
        40,
    );
}

#[test]
fn wirenet_ping_pong_through_worst_case_chaos() {
    wirenet_survives(
        11,
        Chaos {
            backpressure_pct: 50,
            max_chunk: 1,
            partial_accepts: true,
        },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stream_integrity_under_arbitrary_chaos(
        seed in any::<u64>(),
        backpressure_pct in 0u64..60,
        max_chunk in 1usize..9,
        partial_accepts in any::<bool>(),
    ) {
        stream_survives(
            seed,
            Chaos { backpressure_pct, max_chunk, partial_accepts },
            60,
        );
    }

    #[test]
    fn wirenet_delivery_under_arbitrary_chaos(
        seed in any::<u64>(),
        backpressure_pct in 0u64..60,
        max_chunk in 1usize..9,
        partial_accepts in any::<bool>(),
    ) {
        wirenet_survives(seed, Chaos { backpressure_pct, max_chunk, partial_accepts });
    }
}
