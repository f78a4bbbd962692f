//! The wire-tag freeze. A tag that a peer sent or a journal stored is a
//! contract: append new variants, never renumber or remove one. The
//! manifest is built from the code — every `wire_enum!` declaration's
//! `TAGS`, plus hand-kept lists for the three hand-written tagged codecs,
//! each checked against what its codec does — and diffed against
//! `crates/wire/TAGS.lock`. After an intentional append-only change,
//! rewrite the lock and commit it:
//!
//! ```text
//! UPDATE_TAGS=1 cargo test -p p2p_ltr --test wire_tags
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};

use chord::{ChordMsg, OpId, PutMode};
use kts::{KtsMsg, ReqId, ValidateFailure};
use p2p_ltr::{Payload, UserCmd};
use store::StoreEntry;
use wire::{Decode, Encode, Reader, WireError};

const LOCK: &str = "crates/wire/TAGS.lock";

const HEADER: &str = "\
# Frozen wire-tag manifest, checked by crates/core/tests/wire_tags.rs.
# One line per tag: <file> | <type> | <tag> = <variant>
# Tags are a wire contract: append new variants, NEVER renumber.
# Rewrite after an intentional append-only change with:
#   UPDATE_TAGS=1 cargo test -p p2p_ltr --test wire_tags
";

/// One type's tags: the file that declares them, its name, the pairs.
type Tagged = (&'static str, &'static str, &'static [(u8, &'static str)]);

/// Every `wire_enum!` declaration in the product code.
fn declared() -> Vec<Tagged> {
    vec![
        ("crates/core/src/wire_impls.rs", "UserCmd", UserCmd::TAGS),
        ("crates/store/src/entry.rs", "StoreEntry", StoreEntry::TAGS),
        ("crates/wire/src/proto.rs", "ChordMsg", ChordMsg::TAGS),
        ("crates/wire/src/proto.rs", "KtsMsg", KtsMsg::TAGS),
        ("crates/wire/src/proto.rs", "PutMode", PutMode::TAGS),
        (
            "crates/wire/src/proto.rs",
            "ValidateFailure",
            ValidateFailure::TAGS,
        ),
    ]
}

const PAYLOAD: Tagged = (
    "crates/core/src/wire_impls.rs",
    "Payload",
    &[(0, "Chord"), (1, "Kts"), (2, "Cmd")],
);
const BOOL: Tagged = (
    "crates/wire/src/codec.rs",
    "bool",
    &[(0, "false"), (1, "true")],
);
const OPTION: Tagged = (
    "crates/wire/src/codec.rs",
    "Option<T>",
    &[(0, "None"), (1, "Some")],
);

/// The variant name a value's `Debug` form starts with.
fn variant_of(v: &impl Debug) -> String {
    let s = format!("{v:?}");
    s[..s.find(['(', ' ', '{']).unwrap_or(s.len())].to_string()
}

/// Where a hand-kept tag list and its codec disagree: a one-byte input
/// must decode to `BadTag` exactly when its tag is unlisted, and the
/// sample of each listed variant must encode that tag first.
fn hand_kept_drift<T: Encode + Decode + Debug>(
    (_, ty, tags): Tagged,
    samples: &[T],
) -> Vec<String> {
    let mut out = Vec::new();
    for b in 0..=u8::MAX {
        let listed = tags.iter().any(|&(t, _)| t == b);
        let unknown = matches!(
            T::decode(&mut Reader::new(&[b])),
            Err(WireError::BadTag { .. })
        );
        if listed == unknown {
            out.push(format!(
                "{ty}: tag {b} listed = {listed}, but decodes as unknown = {unknown}"
            ));
        }
    }
    for &(tag, name) in tags {
        match samples.iter().find(|s| variant_of(s) == name) {
            Some(s) if s.to_wire().first() == Some(&tag) => {}
            Some(s) => out.push(format!(
                "{ty}::{name} encodes as {:?}, listed as {tag}",
                s.to_wire()
            )),
            None => out.push(format!("{ty}::{name} has no sample")),
        }
    }
    out
}

/// `(file, type, tag) -> variant`.
type Entries = BTreeMap<(String, String, u8), String>;

/// The entries of every tag, or the duplicated tags.
fn entries(types: &[Tagged]) -> Result<Entries, Vec<String>> {
    let mut out = BTreeMap::new();
    let mut dups = Vec::new();
    for &(file, ty, tags) in types {
        for &(tag, variant) in tags {
            if let Some(prev) = out.insert((file.into(), ty.into(), tag), variant.to_string()) {
                dups.push(format!(
                    "{file}: {ty} tag {tag} is both {prev} and {variant}"
                ));
            }
        }
    }
    if dups.is_empty() {
        Ok(out)
    } else {
        Err(dups)
    }
}

fn render(entries: &Entries) -> String {
    let mut out = HEADER.to_string();
    for ((file, ty, tag), variant) in entries {
        out.push_str(&format!("{file} | {ty} | {tag} = {variant}\n"));
    }
    out
}

/// Every way the code's tags differ from the lock's lines.
fn drift(types: &[Tagged], lock: &str) -> Vec<String> {
    let code = match entries(types) {
        Ok(code) => code,
        Err(dups) => return dups,
    };
    let mut locked = BTreeMap::new();
    for line in lock
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let parts: Vec<&str> = line.split(" | ").collect();
        let Some((tag, variant)) = parts.get(2).and_then(|r| r.split_once(" = ")) else {
            return vec![format!("unparsable lock line `{line}`")];
        };
        let Ok(tag) = tag.parse::<u8>() else {
            return vec![format!("unparsable lock line `{line}`")];
        };
        locked.insert(
            (parts[0].to_string(), parts[1].to_string(), tag),
            variant.to_string(),
        );
    }
    let mut out = Vec::new();
    for ((file, ty, tag), variant) in &code {
        match locked.get(&(file.clone(), ty.clone(), *tag)) {
            None => out.push(format!(
                "{file}: {ty} tag {tag} = {variant} is not in the lock; \
                 after an append-only change rerun with UPDATE_TAGS=1"
            )),
            Some(was) if was != variant => out.push(format!(
                "{file}: {ty} tag {tag} is {variant} in the code but {was} in the lock: \
                 frozen tags must not move"
            )),
            Some(_) => {}
        }
    }
    for ((file, ty, tag), was) in &locked {
        if !code.contains_key(&(file.clone(), ty.clone(), *tag)) {
            out.push(format!(
                "{file}: {ty} tag {tag} = {was} is locked but gone from the code: \
                 removing a frozen variant breaks old peers and journals"
            ));
        }
    }
    out
}

fn root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap().to_path_buf()
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir).unwrap().flatten().map(|e| e.path()) {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(file, type)` of every top-level `wire_enum! { Type;` and every
/// top-level hand-written `Decode` impl that can answer `BadTag`.
fn tagged_types_in_source() -> BTreeSet<(String, String)> {
    let root = root();
    let mut found = BTreeSet::new();
    for krate in fs::read_dir(root.join("crates")).unwrap().flatten() {
        let mut files = Vec::new();
        rs_files(&krate.path().join("src"), &mut files);
        for file in files {
            let rel = file
                .strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            let src = fs::read_to_string(&file).unwrap();
            let mut lines = src.lines();
            while let Some(line) = lines.next() {
                if let Some(ty) = line.strip_prefix("wire_enum! { ") {
                    found.insert((rel.clone(), ty.trim_end_matches(';').to_string()));
                } else if let Some((_, ty)) = line
                    .split_once(" Decode for ")
                    .filter(|_| line.starts_with("impl"))
                {
                    let body: Vec<&str> = lines.by_ref().take_while(|l| *l != "}").collect();
                    if body.iter().any(|l| l.contains("BadTag")) {
                        found.insert((rel.clone(), ty.trim_end_matches(" {").to_string()));
                    }
                }
            }
        }
    }
    found
}

fn hand_kept_drifts() -> Vec<String> {
    let mut out = hand_kept_drift(
        PAYLOAD,
        &[
            Payload::Chord(ChordMsg::Ping { op: OpId(1) }),
            Payload::Kts(KtsMsg::Redirect { op: ReqId(1) }),
            Payload::Cmd(UserCmd::Leave),
        ],
    );
    out.extend(hand_kept_drift(BOOL, &[false, true]));
    out.extend(hand_kept_drift(OPTION, &[None, Some(7u8)]));
    out
}

#[test]
fn tags_lock_matches_the_code() {
    let mut types = declared();
    types.extend([PAYLOAD, BOOL, OPTION]);

    let listed: BTreeSet<(String, String)> = types
        .iter()
        .map(|(f, t, _)| (f.to_string(), t.to_string()))
        .collect();
    assert_eq!(
        tagged_types_in_source(),
        listed,
        "every tagged type in the source must be in this test's manifest"
    );
    let drifts = hand_kept_drifts();
    assert!(
        drifts.is_empty(),
        "hand-kept tags disagree with their codecs:\n{}",
        drifts.join("\n")
    );

    let path = root().join(LOCK);
    if std::env::var_os("UPDATE_TAGS").is_some() {
        let code = entries(&types).unwrap_or_else(|dups| panic!("{}", dups.join("\n")));
        fs::write(&path, render(&code)).unwrap();
        return;
    }
    let lock = fs::read_to_string(&path).unwrap();
    let problems = drift(&types, &lock);
    assert!(
        problems.is_empty(),
        "{LOCK} drifted:\n{}",
        problems.join("\n")
    );
    assert_eq!(
        render(&entries(&types).unwrap()),
        lock,
        "{LOCK} is not in canonical form"
    );
}

// ---------------------------------------------------------------------------
// The freeze is red on every kind of drift
// ---------------------------------------------------------------------------

/// A declared message, as a `wire_enum!` would carry it.
#[derive(Debug, PartialEq)]
enum Msg {
    Ping { op: u64 },
    Pong { op: u64, epoch: u64 },
}

wire::wire_enum! { Msg;
    0 => Ping { op },
    1 => Pong { op, #[trailing] epoch },
}

/// A hand-written codec whose encoder pushes the wrong tag for `Pong`.
#[derive(Debug)]
enum Skewed {
    Ping,
    Pong,
}

impl Encode for Skewed {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Skewed::Ping => 0,
            Skewed::Pong => 9,
        });
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for Skewed {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(Skewed::Ping),
            1 => Ok(Skewed::Pong),
            tag => Err(WireError::BadTag {
                what: "Skewed",
                tag,
            }),
        }
    }
}

#[test]
fn wire_tags_roundtrip_then_renumber_fails() {
    const FILE: &str = "crates/wire/src/mini.rs";
    let msg: Tagged = (FILE, "Msg", Msg::TAGS);
    assert_eq!(Msg::TAGS, [(0, "Ping"), (1, "Pong")]);
    assert_eq!(Msg::Pong { op: 7, epoch: 0 }.to_wire(), [1, 7]);

    // A freshly written lock is clean.
    let lock = render(&entries(&[msg]).unwrap());
    assert_eq!(drift(&[msg], &lock), Vec::<String>::new());

    // Renumbered: the two variants swap tags in the lock.
    let renumbered = lock
        .replace("0 = Ping", "0 = Pong")
        .replace("1 = Pong", "1 = Ping");
    assert_eq!(drift(&[msg], &renumbered).len(), 2, "{renumbered}");

    // Removed: the lock holds a tag the code no longer declares.
    let grown = format!("{lock}{FILE} | Msg | 2 = Gone\n");
    assert_eq!(drift(&[msg], &grown).len(), 1);

    // Unlocked: the code declares a tag the lock does not hold.
    let appended: Tagged = (FILE, "Msg", &[(0, "Ping"), (1, "Pong"), (2, "Gone")]);
    let problems = drift(&[appended], &lock);
    assert!(
        problems.len() == 1 && problems[0].contains("UPDATE_TAGS"),
        "{problems:?}"
    );

    // Duplicated: two variants on one tag.
    let dup: Tagged = (FILE, "Msg", &[(0, "Ping"), (0, "Pong")]);
    assert_eq!(drift(&[dup], &lock).len(), 1);

    // A hand-kept list is checked against its codec: the skewed encoder,
    // a tag the decoder does not know, and one it knows but is unlisted.
    let skewed: Tagged = (FILE, "Skewed", &[(0, "Ping"), (1, "Pong")]);
    let problems = hand_kept_drift(skewed, &[Skewed::Ping, Skewed::Pong]);
    assert_eq!(problems.len(), 1, "{problems:?}");
    let missing: Tagged = (FILE, "Skewed", &[(0, "Ping")]);
    assert_eq!(hand_kept_drift(missing, &[Skewed::Ping]).len(), 1);
    let extra: Tagged = (FILE, "Skewed", &[(0, "Ping"), (1, "Pong"), (2, "Gone")]);
    assert_eq!(
        hand_kept_drift(extra, &[Skewed::Ping, Skewed::Pong]).len(),
        3
    );
}
