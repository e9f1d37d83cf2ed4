//! `ServeEngine::set_session_mode`'s contract: which ids and modes it
//! accepts, and that a switch never relabels a segment that already
//! closed.

use gp_serve::{
    IdentityOutcome, IdentityStore, RegistryConfig, ServeConfig, ServeEngine, SessionId,
    SessionMode,
};
use gp_testkit::{stream_fixture, toy_system};
use std::sync::Arc;

/// An engine with an empty identity store in a fresh directory named
/// after the calling test.
fn engine_with_store(test: &str) -> (ServeEngine, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("gp-serve-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        IdentityStore::open(&dir, RegistryConfig::default()).expect("open identity store"),
    );
    let engine = ServeEngine::with_store(toy_system(), ServeConfig::default(), store);
    (engine, dir)
}

#[test]
fn unknown_and_closed_ids_are_refused() {
    let (engine, dir) = engine_with_store("mode-ids");
    assert!(!engine.set_session_mode(SessionId(99), SessionMode::Identify));
    assert!(!engine.set_session_mode(SessionId(99), SessionMode::Classify));

    let session = engine.open_session();
    assert!(engine.set_session_mode(session, SessionMode::Identify));
    engine.close_session(session);
    assert!(!engine.set_session_mode(session, SessionMode::Identify));
    assert!(!engine.set_session_mode(session, SessionMode::Classify));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn classify_is_accepted_without_a_store() {
    let engine = ServeEngine::new(toy_system(), ServeConfig::default());
    let session = engine.open_session();
    assert!(engine.set_session_mode(session, SessionMode::Classify));
    assert!(!engine.set_session_mode(session, SessionMode::Identify));
    engine.close_session(session);
}

#[test]
fn a_switch_does_not_relabel_a_closed_segment() {
    let (engine, dir) = engine_with_store("mode-switch");
    let session = engine.open_session();
    let mut frames = stream_fixture().frames.into_iter();
    // Classify until the first segment closes. With the default batch
    // of 8 it is still queued, undispatched, when the mode switches.
    let first = frames
        .by_ref()
        .position(|frame| engine.push_frame(session, frame) == 1);
    assert!(first.is_some(), "the fixture closes a first segment");
    assert!(engine.set_session_mode(session, SessionMode::Identify));
    for frame in frames {
        engine.push_frame(session, frame);
    }
    engine.close_session(session);
    let events = engine.drain();

    let stats = engine.stats();
    assert_eq!(
        events.len() as u64,
        stats.sessions[&session].segments,
        "every segment publishes, so events[0] is the first one"
    );
    assert!(events.len() >= 2, "the fixture closes a later segment");
    assert_eq!(events[0].identity, None, "closed under Classify");
    for event in &events[1..] {
        assert_eq!(
            event.identity,
            Some(IdentityOutcome::Unknown { distance: None }),
            "closed under Identify, against an empty gallery"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
