//! The producer side: recording clients that stream events over the wire.
//!
//! What both client types share lives here too: the one recording core (the
//! runtime recorder behind the wire's limits), the one frame sealer under
//! this client's sink and the recoverable client's session sink, and the one
//! verdict-plane drain behind both closed-client types.
//!
//! A [`ServiceClient`] is the service-facing twin of the in-process
//! [`evlin_runtime::RecorderShard`] — in fact it records through a
//! `RecorderShard`, instantiated over a sink that encodes frame batches with
//! the [`crate::wire`] codec instead of pushing into an in-process ring, and
//! fronted by a refusal of what the wire cannot carry.  The
//! shared well-formedness filter and the shared global sequence counter are
//! therefore byte-identical to the pipeline's, which is what lets the
//! differential tests compare service verdicts against the offline kernel
//! without normalizing anything.
//!
//! Lifecycle: [`ServiceClient`] sends a hello on construction, event frames
//! while recording, and on [`ServiceClient::finish`] a final flush plus a
//! shutdown frame carrying its event total and chained stream fingerprint.
//! The returned [`ClosedClient`] then drains the replica's verdict plane
//! ([`ClosedClient::collect_verdicts`]) until the service hangs up.  Both
//! directions are in-process duplex links; a client that crosses a network
//! is a [`crate::supervisor::RecoverableClient`].

use crate::transport::{DuplexRx, DuplexTx, FrameRx, FrameTx};
use crate::wire::{
    carries_invocation, carries_response, chain_fingerprint, decode_frame, encode_frame,
    seal_events, VerdictSummary, WireFrame, VERSION,
};
use evlin_history::{Event, ObjectId, ProcessId};
use evlin_runtime::{EventSink, RecorderShard};
use evlin_spec::{Invocation, Value};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Client-side wire counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Event frames shipped.
    pub frames: u64,
    /// Events shipped inside those frames.
    pub events: u64,
    /// Frames shipped below capacity (explicit flushes and the stream tail).
    pub partial_frames: u64,
    /// Events recorded but dropped before they reached the wire: by the
    /// well-formedness filter, or refused because the wire cannot carry them
    /// (`docs/PROTOCOL.md` § `EVENTS`).
    pub dropped_malformed: u64,
    /// Frames the transport refused because the replica side hung up.
    pub send_failures: u64,
}

/// The one recording core behind both clients: the runtime's recorder, which
/// filters and sequence-stamps, behind the wire's limits.  An event the wire
/// cannot carry unchanged is refused before it is stamped, and counted with
/// the filter's drops.  A refused response leaves its operation pending, as
/// a crash would.
pub(crate) struct WireRecorder<S: EventSink> {
    shard: RecorderShard<S>,
    refused: u64,
}

impl<S: EventSink> WireRecorder<S> {
    pub(crate) fn over(seq: Arc<AtomicU64>, sink: S) -> Self {
        WireRecorder {
            shard: RecorderShard::over(seq, sink),
            refused: 0,
        }
    }

    pub(crate) fn invoke(&mut self, process: ProcessId, object: ObjectId, invocation: Invocation) {
        if carries_invocation(process, object, &invocation) {
            self.shard.invoke(process, object, invocation);
        } else {
            self.refused += 1;
        }
    }

    pub(crate) fn respond(&mut self, process: ProcessId, object: ObjectId, value: Value) {
        if carries_response(process, object, &value) {
            self.shard.respond(process, object, value);
        } else {
            self.refused += 1;
        }
    }

    pub(crate) fn flush(&mut self) {
        self.shard.flush();
    }

    /// Closes the recorder, flushing buffered events, and hands the sink back
    /// with every event dropped before the wire: the filter's and the
    /// refused.
    pub(crate) fn into_sink(self) -> (S, u64) {
        let (sink, malformed) = self.shard.into_sink();
        (sink, malformed as u64 + self.refused)
    }
}

/// The one frame sealer behind both clients: buffers sequence-stamped events
/// and seals each batch into the wire encoding of an `EVENTS` frame — batch
/// fingerprint, chained stream fingerprint, dense per-client frame sequence —
/// keeping the running totals the closing `SHUTDOWN` frame audits.
pub(crate) struct FrameSealer {
    client: u32,
    capacity: usize,
    buf: Vec<(u64, Event)>,
    frame_seq: u64,
    /// Seeded with the client id, so identical streams from different
    /// clients never chain-collide.
    chain: u64,
    events: u64,
}

impl FrameSealer {
    pub(crate) fn new(client: u32, frame_capacity: usize) -> Self {
        let capacity = frame_capacity.max(1);
        FrameSealer {
            client,
            capacity,
            buf: Vec::with_capacity(capacity),
            frame_seq: 0,
            chain: client as u64,
            events: 0,
        }
    }

    /// Buffers one event; `true` once the batch has reached frame capacity.
    pub(crate) fn push(&mut self, seq: u64, event: Event) -> bool {
        self.buf.push((seq, event));
        self.buf.len() >= self.capacity
    }

    /// Seals the buffered batch into its frame's wire encoding, also
    /// returning its event count; `None` when nothing is buffered.  The
    /// batch buffer is emptied in place, for the next batch.
    pub(crate) fn seal(&mut self) -> Option<(Vec<u8>, u64)> {
        if self.buf.is_empty() {
            return None;
        }
        let (bytes, fingerprint) = seal_events(self.client, self.frame_seq, &self.buf);
        let count = self.buf.len() as u64;
        self.buf.clear();
        self.chain = chain_fingerprint(self.chain, fingerprint);
        self.events += count;
        self.frame_seq += 1;
        Some((bytes, count))
    }

    /// The `SHUTDOWN` frame closing the stream sealed so far.
    pub(crate) fn shutdown(&self) -> Vec<u8> {
        encode_frame(&WireFrame::Shutdown {
            client: self.client,
            events_sent: self.events,
            stream_fingerprint: self.chain,
        })
    }
}

/// Drains the verdict plane until the service hangs up, appending every
/// verdict round to `summaries`.  Returns how many frames were not decodable
/// or not legal replica→client (acks and pongs still in flight when a
/// session closed are legal, and ignored).
pub(crate) fn drain_verdicts(rx: &mut dyn FrameRx, summaries: &mut Vec<VerdictSummary>) -> u64 {
    let mut protocol_errors = 0u64;
    while let Ok(Some(bytes)) = rx.recv() {
        match decode_frame(&bytes) {
            Ok(WireFrame::Verdict(summary)) => summaries.push(summary),
            Ok(WireFrame::Ack { .. }) | Ok(WireFrame::Pong { .. }) => {}
            Ok(_) | Err(_) => protocol_errors += 1,
        }
    }
    protocol_errors
}

/// The final summaries (one per shard that reported), in shard order.
pub(crate) fn final_summaries(summaries: &[VerdictSummary]) -> Vec<&VerdictSummary> {
    let mut finals: Vec<&VerdictSummary> = summaries.iter().filter(|s| s.last).collect();
    finals.sort_by_key(|s| s.shard);
    finals
}

/// The [`EventSink`] behind a [`ServiceClient`]: seals event batches into
/// wire frames and sends each at once — the adapter that plugs the runtime
/// recorder into a transport.
struct WireSink {
    tx: DuplexTx,
    sealer: FrameSealer,
    stats: ClientStats,
}

impl WireSink {
    fn ship(&mut self, partial: bool) {
        let Some((bytes, events)) = self.sealer.seal() else {
            return;
        };
        self.stats.frames += 1;
        self.stats.events += events;
        if partial {
            self.stats.partial_frames += 1;
        }
        if self.tx.send(bytes).is_err() {
            self.stats.send_failures += 1;
        }
    }
}

impl EventSink for WireSink {
    fn accept(&mut self, seq: u64, event: Event) {
        if self.sealer.push(seq, event) {
            self.ship(false);
        }
    }

    fn flush(&mut self) {
        self.ship(true);
    }
}

/// A producer client of the monitoring service.
///
/// Obtained from [`crate::replica::MonitorService::in_process`].  One client
/// serves one or more recording *processes*, but — like a recorder shard —
/// all events of a given process must go through the same client.
pub struct ServiceClient {
    shard: WireRecorder<WireSink>,
    rx: DuplexRx,
}

impl ServiceClient {
    /// Builds client `client` over its connection's duplex links, sending
    /// the protocol hello immediately.
    ///
    /// `seq` is the shared global sequence source; every client of one
    /// service run must hold a clone of the same counter so that the
    /// replicas can merge streams back into the recorded real-time order.
    pub(crate) fn connect(
        tx: DuplexTx,
        rx: DuplexRx,
        client: u32,
        seq: Arc<AtomicU64>,
        frame_capacity: usize,
    ) -> Self {
        let mut sink = WireSink {
            tx,
            sealer: FrameSealer::new(client, frame_capacity),
            stats: ClientStats::default(),
        };
        let hello = encode_frame(&WireFrame::Hello {
            client,
            version: VERSION,
            session: 0,
            resume: None,
        });
        if sink.tx.send(hello).is_err() {
            sink.stats.send_failures += 1;
        }
        ServiceClient {
            shard: WireRecorder::over(seq, sink),
            rx,
        }
    }

    /// Records an invocation event by `process` on `object`.
    pub fn invoke(&mut self, process: ProcessId, object: ObjectId, invocation: Invocation) {
        self.shard.invoke(process, object, invocation);
    }

    /// Records a response event by `process` on `object`.
    pub fn respond(&mut self, process: ProcessId, object: ObjectId, value: Value) {
        self.shard.respond(process, object, value);
    }

    /// Ships the current partial frame now.
    pub fn flush(&mut self) {
        self.shard.flush();
    }

    /// Ends the client's stream: flushes the tail frame, sends the shutdown
    /// frame (event total plus chained stream fingerprint) and hangs up the
    /// sending direction.  The verdict plane stays open on the returned
    /// [`ClosedClient`].
    pub fn finish(self) -> ClosedClient {
        let (mut sink, dropped_malformed) = self.shard.into_sink();
        sink.stats.dropped_malformed = dropped_malformed;
        if sink.tx.send(sink.sealer.shutdown()).is_err() {
            sink.stats.send_failures += 1;
        }
        // Dropping the sink's sender is the hang-up the handler waits for.
        ClosedClient {
            rx: self.rx,
            stats: sink.stats,
        }
    }
}

/// A finished client still listening on the verdict plane.
pub struct ClosedClient {
    rx: DuplexRx,
    stats: ClientStats,
}

impl ClosedClient {
    /// Drains verdict frames until the service hangs up, returning every
    /// round received together with the client's wire counters.
    ///
    /// Mid-run rounds ride a best-effort path and may be missing (their
    /// round numbers expose the gaps); each shard's final summary is
    /// delivered reliably, after every client's stream has ended.
    pub fn collect_verdicts(mut self) -> ClientReport {
        let mut summaries = Vec::new();
        let protocol_errors = drain_verdicts(&mut self.rx, &mut summaries);
        ClientReport {
            summaries,
            stats: self.stats,
            protocol_errors,
        }
    }
}

/// What a client saw over one service run.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Verdict rounds received, in arrival order.
    pub summaries: Vec<VerdictSummary>,
    /// The client's wire counters.
    pub stats: ClientStats,
    /// Frames on the verdict plane that were not decodable or not legal in
    /// the replica→client direction.
    pub protocol_errors: u64,
}

impl ClientReport {
    /// The final summaries (one per shard that reported), in shard order.
    pub fn final_summaries(&self) -> Vec<&VerdictSummary> {
        final_summaries(&self.summaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{MonitorService, ServiceConfig};
    use evlin_checker::monitor::MonitorVerdict;
    use evlin_history::ObjectUniverse;
    use evlin_spec::FetchIncrement;

    #[test]
    fn refusals_add_to_the_recorders_drops_before_stamping() {
        let seq = Arc::new(AtomicU64::new(0));
        let mut recorder = WireRecorder::over(Arc::clone(&seq), Vec::new());
        let (p, x) = (ProcessId(0), ObjectId(0));
        recorder.invoke(p, x, FetchIncrement::fetch_inc());
        // A response the wire cannot carry: refused, the operation stays
        // pending.
        recorder.respond(p, x, Value::sym("x".repeat(65_536)));
        // A process id the wire cannot carry: refused, and so is its reply.
        let far = ProcessId(u32::MAX as usize + 1);
        recorder.invoke(far, x, FetchIncrement::fetch_inc());
        recorder.respond(far, x, Value::from(0i64));
        // The recorder's own drop: a second invocation while one is pending.
        recorder.invoke(p, x, FetchIncrement::fetch_inc());
        recorder.invoke(ProcessId(1), x, FetchIncrement::fetch_inc());
        let (recorded, dropped) = recorder.into_sink();
        assert_eq!(dropped, 3 + 1);
        // Refused events took no sequence number: the stream stays dense.
        let seqs: Vec<u64> = recorded.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, [0, 1]);
    }

    #[test]
    fn a_service_client_counts_refused_events_as_malformed() {
        let mut universe = ObjectUniverse::new();
        let x = universe.add_object(FetchIncrement::new());
        let (mut clients, service) =
            MonitorService::in_process(&universe, 1, ServiceConfig::default());
        let mut client = clients.pop().expect("one client");
        let (p, far) = (ProcessId(0), ProcessId(u32::MAX as usize + 1));
        client.invoke(p, x, FetchIncrement::fetch_inc());
        client.invoke(far, x, FetchIncrement::fetch_inc());
        client.respond(p, x, Value::from(0i64));
        client.respond(p, x, Value::from(1i64));
        let closed = client.finish();
        let report = service.finish();
        let client = closed.collect_verdicts();
        assert_eq!(client.stats.dropped_malformed, 2);
        assert_eq!(client.stats.events, 2);
        assert_eq!(report.events(), 2);
        assert_eq!(report.connections[0].corrupt_frames, 0);
        assert_eq!(report.verdict, MonitorVerdict::Ok);
    }
}
