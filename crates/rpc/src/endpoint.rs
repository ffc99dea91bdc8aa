//! Per-node RPC endpoints: dispatch, reply routing and the receive pump.
//!
//! An [`Endpoint`] owns one node's RPC machinery: the inbox fed by the
//! network, a receive-pump coroutine that charges per-message CPU (this is
//! where a CPU-slow node becomes slow to *everyone*), the registered
//! services, the table of pending outbound calls, and the per-peer
//! [`Connection`]s.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use bytes::Bytes;
use depfast::event::{EventKind, Watchable};
use depfast::runtime::{Coroutine, Runtime};
use depfast::TypedEvent;
use simkit::{NodeId, World};

use crate::conn::{BufferPolicy, Connection, OutMsg};
use crate::proxy::{Proxy, RpcEvent};
use crate::wire::{WireRead, WireWrite};
use crate::{wire_struct, Method};

/// Endpoint configuration.
#[derive(Debug, Clone, Copy)]
pub struct RpcCfg {
    /// CPU charged on the sender per outgoing message.
    pub tx_cpu: Duration,
    /// CPU charged on the receiver per incoming message (in the pump).
    pub rx_cpu: Duration,
    /// Flow-control window per connection.
    pub window: usize,
    /// Outgoing buffer policy.
    pub buffer: BufferPolicy,
    /// Delay before a processed message's credit returns to the sender
    /// (models the transport ack round-trip).
    pub ack_latency: Duration,
}

impl Default for RpcCfg {
    fn default() -> Self {
        RpcCfg {
            tx_cpu: Duration::from_micros(15),
            rx_cpu: Duration::from_micros(15),
            window: 128,
            buffer: BufferPolicy::Bounded {
                cap: 4096,
                on_full: crate::conn::OnFull::DropNewest,
            },
            ack_latency: Duration::from_micros(250),
        }
    }
}

#[derive(Debug)]
pub(crate) struct Envelope {
    pub is_reply: bool,
    pub rpc_id: u64,
    pub method: u32,
    /// Causal-trace id of the client operation this message serves
    /// (`0` = untraced).
    pub trace_id: u64,
    /// Span that caused this message (the RPC event on the caller for
    /// requests, the service coroutine for replies; `0` = none).
    pub parent_span: u64,
    pub payload: Bytes,
}
wire_struct!(Envelope {
    is_reply,
    rpc_id,
    method,
    trace_id,
    parent_span,
    payload
});

/// Encodes the ambient [`TraceCtx`] for the wire (`(0, 0)` = untraced),
/// with `parent_span` replaced by the given span.
fn wire_ctx(parent: depfast::SpanId) -> (u64, u64) {
    match depfast::trace_ctx() {
        Some(ctx) => (ctx.trace_id, parent.0),
        None => (0, 0),
    }
}

/// Decodes a wire context back into a [`TraceCtx`].
fn unwire_ctx(trace_id: u64, parent_span: u64) -> Option<depfast::TraceCtx> {
    (trace_id != 0 || parent_span != 0).then_some(depfast::TraceCtx {
        trace_id,
        parent_span: depfast::SpanId(parent_span),
    })
}

type Service = Rc<dyn Fn(NodeId, Bytes, Responder)>;

/// Shared registry so endpoints can return flow-control credits to each
/// other's connections. One per cluster.
#[derive(Clone, Default)]
pub struct Registry {
    endpoints: Rc<RefCell<HashMap<u32, Weak<EndpointInner>>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }
}

pub(crate) struct EndpointInner {
    rt: Runtime,
    world: World,
    node: NodeId,
    cfg: RpcCfg,
    services: RefCell<HashMap<Method, (&'static str, Service)>>,
    pending: RefCell<HashMap<u64, RpcEvent>>,
    next_id: Cell<u64>,
    conns: RefCell<HashMap<u32, Connection>>,
    registry: Registry,
    inbox: RefCell<VecDeque<simkit::world::NetMessage>>,
    inbox_waker: RefCell<Option<Waker>>,
    /// Peak inbox depth, for diagnostics.
    inbox_peak: Cell<usize>,
}

/// One node's RPC endpoint. Cheap to clone.
#[derive(Clone)]
pub struct Endpoint {
    pub(crate) inner: Rc<EndpointInner>,
}

impl Endpoint {
    /// Creates the endpoint for `rt`'s node, wires it to the network and
    /// starts its receive pump.
    pub fn new(rt: &Runtime, world: &World, registry: &Registry, cfg: RpcCfg) -> Self {
        let node = rt.node();
        let inner = Rc::new(EndpointInner {
            rt: rt.clone(),
            world: world.clone(),
            node,
            cfg,
            services: RefCell::new(HashMap::new()),
            pending: RefCell::new(HashMap::new()),
            next_id: Cell::new(1),
            conns: RefCell::new(HashMap::new()),
            registry: registry.clone(),
            inbox: RefCell::new(VecDeque::new()),
            inbox_waker: RefCell::new(None),
            inbox_peak: Cell::new(0),
        });
        registry
            .endpoints
            .borrow_mut()
            .insert(node.0, Rc::downgrade(&inner));
        let ep = Endpoint { inner };
        let weak = Rc::downgrade(&ep.inner);
        world.register_handler(node, move |msg| {
            if let Some(inner) = weak.upgrade() {
                let mut inbox = inner.inbox.borrow_mut();
                inbox.push_back(msg);
                inner
                    .inbox_peak
                    .set(inner.inbox_peak.get().max(inbox.len()));
                drop(inbox);
                if let Some(w) = inner.inbox_waker.borrow_mut().take() {
                    w.wake();
                }
            }
        });
        ep.spawn_pump();
        ep
    }

    /// The node this endpoint serves.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The runtime this endpoint runs on.
    pub fn runtime(&self) -> &Runtime {
        &self.inner.rt
    }

    /// The simulated world.
    pub fn world(&self) -> &World {
        &self.inner.world
    }

    /// The endpoint configuration.
    pub fn cfg(&self) -> RpcCfg {
        self.inner.cfg
    }

    /// Peak inbox depth observed (diagnostics).
    pub fn inbox_peak(&self) -> usize {
        self.inner.inbox_peak.get()
    }

    /// Registers a service: requests for `method` run `f` in a fresh
    /// coroutine labelled `label`. `f` replies through the [`Responder`].
    pub fn register(
        &self,
        method: Method,
        label: &'static str,
        f: impl Fn(NodeId, Bytes, Responder) + 'static,
    ) {
        self.inner
            .services
            .borrow_mut()
            .insert(method, (label, Rc::new(f)));
    }

    /// Returns a proxy for calling `peer`.
    pub fn proxy(&self, peer: NodeId) -> Proxy {
        Proxy::new(self.clone(), peer)
    }

    /// The connection to `peer`, opened on first use.
    pub fn conn(&self, peer: NodeId) -> Connection {
        let mut conns = self.inner.conns.borrow_mut();
        conns
            .entry(peer.0)
            .or_insert_with(|| {
                Connection::open(
                    &self.inner.rt,
                    &self.inner.world,
                    peer,
                    self.inner.cfg.buffer,
                    self.inner.cfg.window,
                    self.inner.cfg.tx_cpu,
                )
            })
            .clone()
    }

    /// Issues an RPC to `peer`, returning the reply event.
    pub(crate) fn call_raw(
        &self,
        peer: NodeId,
        method: Method,
        label: &'static str,
        payload: Bytes,
        cancel: Option<crate::conn::CancelToken>,
    ) -> RpcEvent {
        let event: RpcEvent =
            TypedEvent::new(&self.inner.rt, EventKind::Rpc { target: peer }, label);
        let rpc_id = self.inner.next_id.get();
        self.inner.next_id.set(rpc_id + 1);
        self.inner
            .pending
            .borrow_mut()
            .insert(rpc_id, event.clone());
        // The request carries the caller's causal context; its parent span
        // is the RPC event itself, so the callee's work hangs under it.
        let (trace_id, parent_span) = wire_ctx(depfast::SpanId::event(event.handle().id()));
        let env = Envelope {
            is_reply: false,
            rpc_id,
            method,
            trace_id,
            parent_span,
            payload,
        };
        let ev = event.clone();
        let me = Rc::downgrade(&self.inner);
        self.conn(peer).enqueue(
            &self.inner.world,
            OutMsg {
                bytes: env.to_bytes(),
                cancel,
                on_drop: Some(Box::new(move || {
                    if let Some(inner) = me.upgrade() {
                        inner.pending.borrow_mut().remove(&rpc_id);
                    }
                    ev.fire_err();
                })),
            },
        );
        event
    }

    /// Sends a reply for `rpc_id` back to `peer`.
    fn reply(&self, peer: NodeId, rpc_id: u64, payload: Bytes, ctx: (u64, u64)) {
        let env = Envelope {
            is_reply: true,
            rpc_id,
            method: 0,
            trace_id: ctx.0,
            parent_span: ctx.1,
            payload,
        };
        self.conn(peer).enqueue(
            &self.inner.world,
            OutMsg {
                bytes: env.to_bytes(),
                cancel: None,
                on_drop: None,
            },
        );
    }

    /// The receive pump: pops the inbox, charges receive CPU, returns the
    /// sender's flow-control credit, then routes the message.
    fn spawn_pump(&self) {
        let ep = self.clone();
        Coroutine::create(&self.inner.rt, "rpc:pump", async move {
            loop {
                let msg = InboxPop {
                    inner: ep.inner.clone(),
                }
                .await;
                if ep
                    .inner
                    .world
                    .cpu(ep.inner.node, ep.inner.cfg.rx_cpu)
                    .await
                    .is_err()
                {
                    break; // Node crashed: stop serving.
                }
                ep.return_credit(msg.from);
                ep.route(msg.from, msg.payload);
            }
        });
    }

    /// Schedules the transport-level credit back to `from`'s connection.
    fn return_credit(&self, from: NodeId) {
        let registry = self.inner.registry.endpoints.borrow();
        let Some(sender) = registry.get(&from.0).and_then(Weak::upgrade) else {
            return;
        };
        drop(registry);
        let me = self.inner.node;
        let conn = sender.conns.borrow().get(&me.0).cloned();
        if let Some(conn) = conn {
            let at = self.inner.rt.now() + self.inner.cfg.ack_latency;
            self.inner.rt.schedule_call(at, move || conn.grant_credit());
        }
    }

    fn route(&self, from: NodeId, raw: Bytes) {
        let Some(env) = Envelope::from_bytes(&raw) else {
            return; // Malformed: drop.
        };
        if env.is_reply {
            let pending = self.inner.pending.borrow_mut().remove(&env.rpc_id);
            if let Some(event) = pending {
                event.fire_ok(env.payload);
            }
            return;
        }
        let svc = self.inner.services.borrow().get(&env.method).cloned();
        let Some((label, svc)) = svc else {
            return; // Unknown method: drop (caller times out).
        };
        let ctx = unwire_ctx(env.trace_id, env.parent_span);
        let responder = Responder {
            ep: self.clone(),
            to: from,
            rpc_id: env.rpc_id,
            ctx: (env.trace_id, env.parent_span),
        };
        let payload = env.payload;
        let f = svc.clone();
        // The service coroutine resumes the caller's causal context, so
        // everything it does — and everything it spawns — stays in the
        // request's trace tree.
        Coroutine::create_traced(&self.inner.rt, label, ctx, async move {
            f(from, payload, responder);
        });
    }
}

/// Capability to answer one specific request.
pub struct Responder {
    ep: Endpoint,
    to: NodeId,
    rpc_id: u64,
    /// Wire-encoded trace context of the request, echoed on the reply.
    ctx: (u64, u64),
}

impl Responder {
    /// Sends the reply payload.
    pub fn reply(self, payload: Bytes) {
        self.ep.reply(self.to, self.rpc_id, payload, self.ctx);
    }

    /// Sends a typed reply.
    pub fn reply_t<T: WireWrite>(self, value: &T) {
        self.reply(value.to_bytes());
    }

    /// The node that sent the request.
    pub fn caller(&self) -> NodeId {
        self.to
    }
}

struct InboxPop {
    inner: Rc<EndpointInner>,
}

impl Future for InboxPop {
    type Output = simkit::world::NetMessage;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Some(m) = self.inner.inbox.borrow_mut().pop_front() {
            return Poll::Ready(m);
        }
        *self.inner.inbox_waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depfast::event::Watchable;
    use simkit::{Sim, WorldCfg};

    pub(crate) const ECHO: Method = 1;
    pub(crate) const DOUBLE: Method = 2;

    pub(crate) fn cluster(n: usize) -> (Sim, World, Vec<Endpoint>) {
        let sim = Sim::new(7);
        let world = World::new(
            sim.clone(),
            WorldCfg {
                nodes: n,
                ..WorldCfg::default()
            },
        );
        let registry = Registry::new();
        let tracer = depfast::Tracer::new();
        let eps: Vec<Endpoint> = (0..n as u32)
            .map(|i| {
                let rt = Runtime::with_tracer(sim.clone(), NodeId(i), tracer.clone());
                Endpoint::new(&rt, &world, &registry, RpcCfg::default())
            })
            .collect();
        for ep in &eps {
            ep.register(ECHO, "svc:echo", |_, payload, r| r.reply(payload));
            ep.register(DOUBLE, "svc:double", |_, payload, r| {
                let v = u64::from_bytes(&payload).unwrap();
                r.reply_t(&(v * 2));
            });
        }
        (sim, world, eps)
    }

    #[test]
    fn trace_ctx_crosses_the_wire_into_the_service_coroutine() {
        use depfast::{set_trace_ctx, trace_ctx, SpanId, TraceCtx};
        let (sim, _world, eps) = cluster(2);
        let seen = Rc::new(RefCell::new(None));
        let s = seen.clone();
        eps[1].register(77, "svc:probe", move |_, _, r| {
            *s.borrow_mut() = Some(trace_ctx());
            r.reply(Bytes::new());
        });
        let caller = eps[0].clone();
        let rt = caller.runtime().clone();
        let sent_span = Rc::new(Cell::new(SpanId::NONE));
        let sp = sent_span.clone();
        Coroutine::create(&rt, "client", async move {
            set_trace_ctx(Some(TraceCtx {
                trace_id: 42,
                parent_span: SpanId::NONE,
            }));
            let ev = caller.proxy(NodeId(1)).call(77, "probe", Bytes::new());
            sp.set(SpanId::event(ev.handle().id()));
            ev.handle().wait().await;
        });
        sim.run();
        // The service saw the caller's trace id, parented under the RPC
        // event the caller is waiting on.
        let got = seen.borrow().expect("service ran");
        assert_eq!(
            got,
            Some(TraceCtx {
                trace_id: 42,
                parent_span: sent_span.get(),
            })
        );
    }

    #[test]
    fn request_reply_round_trip() {
        let (sim, _world, eps) = cluster(2);
        let ev = eps[0]
            .proxy(NodeId(1))
            .call(ECHO, "echo", Bytes::from_static(b"ping"));
        let ev2 = ev.clone();
        let out = sim.block_on(async move { ev2.handle().wait().await });
        assert!(out.is_ready());
        assert_eq!(ev.take().unwrap(), Bytes::from_static(b"ping"));
        // The envelope both directions travel in encodes at its exact size.
        let env = Envelope {
            is_reply: true,
            rpc_id: 9,
            method: ECHO,
            trace_id: 3,
            parent_span: 4,
            payload: Bytes::from_static(b"ping"),
        };
        let enc = env.to_bytes();
        assert_eq!(env.wire_len(), enc.len());
        let back = Envelope::from_bytes(&enc).unwrap();
        assert_eq!((back.rpc_id, back.payload), (9, env.payload));
    }

    #[derive(Debug, PartialEq)]
    struct Blob {
        tag: u32,
        body: Bytes,
        tail: u16,
    }
    crate::wire_struct!(Blob { tag, body, tail });

    /// The envelope's bytes are pinned, with a payload that itself embeds
    /// a large field; decoding hands back that field's own memory.
    #[test]
    fn envelope_encodes_to_the_pinned_bytes() {
        let body: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 3) as u8).collect();
        let blob = Blob {
            tag: 0xabcd,
            body: Bytes::from(body.clone()),
            tail: 0x0102,
        };
        let env = Envelope {
            is_reply: false,
            rpc_id: 5,
            method: 0x10,
            trace_id: 77,
            parent_span: 78,
            payload: blob.to_bytes(),
        };
        let mut golden = vec![0x00]; // is_reply
        golden.extend_from_slice(&5u64.to_le_bytes()); // rpc_id
        golden.extend_from_slice(&[0x10, 0, 0, 0]); // method
        golden.extend_from_slice(&77u64.to_le_bytes()); // trace_id
        golden.extend_from_slice(&78u64.to_le_bytes()); // parent_span
        golden.extend_from_slice(&[0x0a, 0x04, 0, 0]); // payload length 1034
        golden.extend_from_slice(&[0xcd, 0xab, 0, 0, 0x00, 0x04, 0, 0]); // tag, body length
        golden.extend_from_slice(&body);
        golden.extend_from_slice(&[0x02, 0x01]); // tail
        let enc = env.to_bytes();
        assert_eq!(enc.to_vec(), golden);
        assert_eq!(enc.len(), env.wire_len());
        let back = Blob::from_bytes(&Envelope::from_bytes(&enc).unwrap().payload).unwrap();
        assert_eq!(back, blob);
        assert_eq!(back.body.as_ptr(), blob.body.as_ptr());
    }

    #[test]
    fn typed_round_trip() {
        let (sim, _world, eps) = cluster(2);
        let ev = eps[0].proxy(NodeId(1)).call_t(DOUBLE, "double", &21u64);
        let ev2 = ev.clone();
        sim.block_on(async move { ev2.handle().wait().await });
        let reply: u64 = u64::from_bytes(&ev.take().unwrap()).unwrap();
        assert_eq!(reply, 42);
    }

    #[test]
    fn rpc_to_crashed_node_times_out() {
        let (sim, world, eps) = cluster(2);
        world.crash(NodeId(1));
        let ev = eps[0].proxy(NodeId(1)).call(ECHO, "echo", Bytes::new());
        let out =
            sim.block_on(async move { ev.handle().wait_timeout(Duration::from_millis(100)).await });
        assert!(out.is_timeout());
    }

    #[test]
    fn unknown_method_times_out() {
        let (sim, _world, eps) = cluster(2);
        let ev = eps[0].proxy(NodeId(1)).call(999, "nope", Bytes::new());
        let out =
            sim.block_on(async move { ev.handle().wait_timeout(Duration::from_millis(50)).await });
        assert!(out.is_timeout());
    }

    #[test]
    fn slow_receiver_backpressures_sender_queue() {
        let (sim, world, eps) = cluster(2);
        // Make node 1 CPU-starved so its pump drains slowly.
        world.set_cpu_quota(NodeId(1), 0.01);
        for _ in 0..3000 {
            eps[0]
                .proxy(NodeId(1))
                .call(ECHO, "echo", Bytes::from_static(b"x"));
        }
        sim.run_until_time(simkit::SimTime::from_millis(200));
        let conn = eps[0].conn(NodeId(1));
        assert!(
            conn.queue_len() > 0,
            "sender queue should back up behind a slow receiver"
        );
    }

    #[test]
    fn concurrent_calls_route_replies_correctly() {
        let (sim, _world, eps) = cluster(3);
        let evs: Vec<_> = (0..10u64)
            .map(|i| {
                let peer = NodeId(1 + (i % 2) as u32);
                eps[0].proxy(peer).call_t(DOUBLE, "double", &i)
            })
            .collect();
        sim.run();
        for (i, ev) in evs.iter().enumerate() {
            let reply = u64::from_bytes(&ev.take().unwrap()).unwrap();
            assert_eq!(reply, i as u64 * 2);
        }
    }
}
