//! The typed flight-recorder event stream.
//!
//! Spans answer "how long did each phase take"; events answer "what did the
//! platform *do*, in what order". Each [`Event`] is a virtual-clock-stamped
//! [`EventKind`] recorded by the substrate that performed the action — the
//! machine (SKINIT, DEV, interrupt flag), the TPM (per-ordinal commands,
//! PCR extends and resets), physical memory (zeroize sweeps), the OS
//! (suspend/resume lifecycle), and the session driver (session and phase
//! transitions). Injected faults appear in the same stream, so a replay
//! shows exactly which fault landed between which protocol steps.
//!
//! The stream is what `trace::audit` replays to check the paper's Figure-2
//! ordering invariants, and what the JSONL / Chrome-trace exporters emit.

use crate::attribution::categories;
use std::time::Duration;

/// The Figure-2 phase names: the closed set a [`EventKind::PhaseStart`] or
/// [`EventKind::PhaseEnd`] carries, and the names of the spans the recorder
/// folds from them.
pub mod phases {
    /// The flicker-module suspends the OS.
    pub const SUSPEND: &str = "phase.suspend";
    /// `SKINIT`: DEV protection, PCR-17 reset and the SLB measurement.
    pub const SKINIT: &str = "phase.skinit";
    /// The optional §7.2 hashing stub extends the window's hash into
    /// PCR 17 (empty without a stub).
    pub const STUB_MEASURE: &str = "phase.stub_measure";
    /// SLB Core init and the PAL's execution.
    pub const PAL: &str = "phase.pal";
    /// The SLB Core erases secrets, publishes outputs and makes the
    /// terminal PCR-17 extends.
    pub const CLEANUP: &str = "phase.cleanup";
    /// The OS resumes.
    pub const RESUME: &str = "phase.resume";
    /// Static verification of a bytecode PAL before launch.
    pub const VERIFY: &str = "phase.verify";
    /// The constant-time / secret-flow verdict of a bytecode PAL.
    pub const ANALYZE: &str = "phase.analyze";

    /// Every phase name.
    pub const ALL: [&str; 8] = [
        SUSPEND,
        SKINIT,
        STUB_MEASURE,
        PAL,
        CLEANUP,
        RESUME,
        VERIFY,
        ANALYZE,
    ];
}

/// Dapper-style request context: identifies the farm request (trace id) and
/// attempt (span within the trace) an event belongs to.
///
/// Minted by the farm coordinator at admission and stamped onto the serving
/// shard's recorder for the duration of each attempt, so every event the
/// substrate emits while working on a request carries the owner's id
/// without threading a parameter through the whole protocol stack. Events
/// recorded with no context in force are *machine-scoped* (provisioning,
/// probe sessions) or *coordinator-scoped* (queue decisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestCtx {
    /// The farm request id (the trace id; unique per submitted request).
    pub request: u64,
    /// 1-based attempt number (the parent span id within the trace: a
    /// retried or requeued request keeps its trace id and opens a new
    /// attempt span).
    pub attempt: u32,
}

/// One recorded platform action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time at which the action completed.
    pub at: Duration,
    /// What happened.
    pub kind: EventKind,
    /// The owning request, when one was in force on the recorder.
    pub ctx: Option<RequestCtx>,
}

impl Event {
    /// An event with no request context (machine- or coordinator-scoped).
    pub fn new(at: Duration, kind: EventKind) -> Event {
        Event {
            at,
            kind,
            ctx: None,
        }
    }
}

/// The kinds of actions the flight recorder distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A Flicker session began (the session driver allocated `id`).
    SessionStart {
        /// Monotonic per-trace session id.
        id: u64,
    },
    /// The session with `id` completed its full Figure-2 timeline.
    SessionEnd {
        /// The id from the matching [`EventKind::SessionStart`].
        id: u64,
    },
    /// A Figure-2 phase opened (e.g. `phase.skinit`); the recorder opens
    /// the phase's span.
    PhaseStart {
        /// Phase span name, one of [`phases::ALL`].
        name: &'static str,
    },
    /// A Figure-2 phase closed; the recorder closes the innermost open
    /// span of that name.
    PhaseEnd {
        /// Phase span name, one of [`phases::ALL`].
        name: &'static str,
    },
    /// A TPM command completed (successfully or not) at a software
    /// locality.
    TpmCommand {
        /// Spec ordinal name, e.g. `TPM_Seal`.
        ordinal: String,
        /// Locality the command was issued at (0 for the OS driver path).
        locality: u8,
        /// Virtual time the command spent executing, in nanoseconds
        /// (per-ordinal drill-down under the `tpm` attribution category).
        dur_ns: u64,
    },
    /// Virtual time charged against the active request under a named
    /// attribution category (`cpu`, `tpm`, `net`, `skinit`, `tpm_backoff`,
    /// `retry_backoff`). Emitted only while a [`RequestCtx`] is in force,
    /// so idle shards and provisioning stay cheap.
    Charge {
        /// Attribution category the time belongs to, one of
        /// [`categories::ON_SHARD`].
        op: &'static str,
        /// Charged duration in nanoseconds.
        ns: u64,
    },
    /// A PCR was extended.
    PcrExtend {
        /// PCR index.
        index: u32,
        /// Locality of the extend (4 only on the hardware SKINIT path).
        locality: u8,
    },
    /// The dynamic PCRs were reset (17–23 to zero).
    PcrReset {
        /// The PCR whose reset matters to the audit (17).
        index: u32,
        /// Locality presented for the reset; only 4 is legitimate.
        locality: u8,
    },
    /// The DEV began protecting a physical range from device access.
    DevProtect {
        /// Protected base address.
        base: u64,
        /// Protected length in bytes.
        len: u64,
    },
    /// All DEV protections of the active launch were released.
    DevRelease {
        /// How many protection tokens were released.
        count: u64,
    },
    /// The BSP's interrupt flag changed.
    InterruptsChanged {
        /// New state: `true` means interrupts are deliverable again.
        enabled: bool,
    },
    /// `SKINIT` completed: the SLB is measured and the PAL is about to run.
    Skinit {
        /// Physical base of the SLB.
        slb_base: u64,
        /// Header-declared (measured) SLB length.
        slb_len: u64,
    },
    /// A physical memory range was overwritten with zeroes.
    Zeroize {
        /// Erased base address.
        base: u64,
        /// Erased length in bytes.
        len: u64,
    },
    /// An armed fault fired in some substrate.
    FaultInjected {
        /// Stable fault-kind name (see `flicker_faults::fired`).
        fault: String,
    },
    /// The OS suspended itself for a session (APs parked, state saved).
    OsSuspend,
    /// The OS resumed after a session.
    OsResume,
    /// The platform rebooted (power cycle or explicit reset): RAM gone,
    /// dynamic PCRs back to −1, DEV cleared, any launch destroyed.
    Reboot,
    /// A farm-level scheduling decision (the sharded attestation service's
    /// robustness policy layer). Stable `action` names are defined by
    /// `flicker-farm` (`enqueued`, `admitted`, `running`, `done`, `failed`,
    /// `retry`, `shed`, `timed_out`, `requeued`, `quarantine`, `probe`,
    /// `readmitted`).
    Farm {
        /// Decision name (snake_case).
        action: String,
        /// Request id the decision concerns (0 for machine-level actions).
        request: u64,
        /// Machine shard index ([`u64::MAX`] when no machine is involved,
        /// e.g. an admission-control shed decided at the queue).
        machine: u64,
    },
}

impl EventKind {
    /// Stable snake_case name of the kind (the JSONL `kind` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SessionStart { .. } => "session_start",
            EventKind::SessionEnd { .. } => "session_end",
            EventKind::PhaseStart { .. } => "phase_start",
            EventKind::PhaseEnd { .. } => "phase_end",
            EventKind::TpmCommand { .. } => "tpm_command",
            EventKind::Charge { .. } => "charge",
            EventKind::PcrExtend { .. } => "pcr_extend",
            EventKind::PcrReset { .. } => "pcr_reset",
            EventKind::DevProtect { .. } => "dev_protect",
            EventKind::DevRelease { .. } => "dev_release",
            EventKind::InterruptsChanged { .. } => "interrupts",
            EventKind::Skinit { .. } => "skinit",
            EventKind::Zeroize { .. } => "zeroize",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::OsSuspend => "os_suspend",
            EventKind::OsResume => "os_resume",
            EventKind::Reboot => "reboot",
            EventKind::Farm { .. } => "farm",
        }
    }
}

/// Appends `s` to `out` as the body of a JSON string (no surrounding
/// quotes): `"`, `\`, newline, tab and carriage return take their short
/// escapes, every other control character a `\u00XX` one. The one JSON
/// string escaper of the workspace.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    escape_json(value, out);
    out.push('"');
}

fn push_u64_field(out: &mut String, key: &str, value: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

impl EventKind {
    /// Appends the payload as `,"key":value` pairs, in declaration order.
    fn push_fields(&self, s: &mut String) {
        match self {
            EventKind::SessionStart { id } | EventKind::SessionEnd { id } => {
                push_u64_field(s, "id", *id);
            }
            EventKind::PhaseStart { name } | EventKind::PhaseEnd { name } => {
                push_str_field(s, "name", name);
            }
            EventKind::TpmCommand {
                ordinal,
                locality,
                dur_ns,
            } => {
                push_str_field(s, "ordinal", ordinal);
                push_u64_field(s, "locality", u64::from(*locality));
                push_u64_field(s, "dur_ns", *dur_ns);
            }
            EventKind::Charge { op, ns } => {
                push_str_field(s, "op", op);
                push_u64_field(s, "ns", *ns);
            }
            EventKind::PcrExtend { index, locality } | EventKind::PcrReset { index, locality } => {
                push_u64_field(s, "index", u64::from(*index));
                push_u64_field(s, "locality", u64::from(*locality));
            }
            EventKind::DevProtect { base, len } => {
                push_u64_field(s, "base", *base);
                push_u64_field(s, "len", *len);
            }
            EventKind::DevRelease { count } => push_u64_field(s, "count", *count),
            EventKind::InterruptsChanged { enabled } => {
                s.push_str(",\"enabled\":");
                s.push_str(if *enabled { "true" } else { "false" });
            }
            EventKind::Skinit { slb_base, slb_len } => {
                push_u64_field(s, "slb_base", *slb_base);
                push_u64_field(s, "slb_len", *slb_len);
            }
            EventKind::Zeroize { base, len } => {
                push_u64_field(s, "base", *base);
                push_u64_field(s, "len", *len);
            }
            EventKind::FaultInjected { fault } => push_str_field(s, "fault", fault),
            EventKind::Farm {
                action,
                request,
                machine,
            } => {
                push_str_field(s, "action", action);
                push_u64_field(s, "request", *request);
                push_u64_field(s, "machine", *machine);
            }
            EventKind::OsSuspend | EventKind::OsResume | EventKind::Reboot => {}
        }
    }
}

/// Appends the request context as `,"req":…,"attempt":…` (nothing when
/// there is none).
fn push_ctx(ctx: Option<RequestCtx>, s: &mut String) {
    if let Some(ctx) = ctx {
        push_u64_field(s, "req", ctx.request);
        push_u64_field(s, "attempt", u64::from(ctx.attempt));
    }
}

/// The payload of `kind` (if any) and `ctx` as one JSON object: the
/// fields a JSONL line carries after `kind`, in the same order and with
/// the same escaping. The Chrome exporter's `args`.
pub(crate) fn fields_object(kind: Option<&EventKind>, ctx: Option<RequestCtx>) -> String {
    let mut s = String::new();
    if let Some(kind) = kind {
        kind.push_fields(&mut s);
    }
    push_ctx(ctx, &mut s);
    if s.is_empty() {
        return "{}".to_string();
    }
    s.replace_range(..1, "{");
    s.push('}');
    s
}

impl Event {
    /// Serializes the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"at_ns\":");
        let ns = u64::try_from(self.at.as_nanos()).unwrap_or(u64::MAX);
        s.push_str(&ns.to_string());
        push_str_field(&mut s, "kind", self.kind.name());
        self.kind.push_fields(&mut s);
        push_ctx(self.ctx, &mut s);
        s.push('}');
        s
    }

    /// Parses one line in the exact format [`Event::to_jsonl`] emits.
    ///
    /// This is a line-oriented field extractor, not a general JSON parser:
    /// it accepts the shapes this crate writes (and tolerates reordered
    /// fields), which is all the round-trip and `audit --jsonl` paths need.
    pub fn from_jsonl(line: &str) -> Result<Event, String> {
        let at_ns = field_u64(line, "at_ns").ok_or_else(|| format!("missing at_ns: {line}"))?;
        let at = Duration::from_nanos(at_ns);
        let kind_name = field_str(line, "kind").map_err(|e| format!("{e}: {line}"))?;
        let req_u64 = |key: &str| req_num::<u64>(line, &kind_name, key);
        let req_u32 = |key: &str| req_num::<u32>(line, &kind_name, key);
        let req_u8 = |key: &str| req_num::<u8>(line, &kind_name, key);
        let req_str =
            |key: &str| field_str(line, key).map_err(|e| format!("{e} in {kind_name} event"));
        // A name field drawn from a closed set maps back to the set's
        // `&'static str`; a name outside it is an error naming the field.
        let req_name = |key: &str, set: &[&'static str]| {
            let name = req_str(key)?;
            set.iter()
                .copied()
                .find(|n| *n == name)
                .ok_or_else(|| format!("unknown {key} {name:?} in {kind_name} event"))
        };
        let kind = match kind_name.as_str() {
            "session_start" => EventKind::SessionStart { id: req_u64("id")? },
            "session_end" => EventKind::SessionEnd { id: req_u64("id")? },
            "phase_start" => EventKind::PhaseStart {
                name: req_name("name", &phases::ALL)?,
            },
            "phase_end" => EventKind::PhaseEnd {
                name: req_name("name", &phases::ALL)?,
            },
            "tpm_command" => EventKind::TpmCommand {
                ordinal: req_str("ordinal")?,
                locality: req_u8("locality")?,
                // Optional for lines written before durations were recorded.
                dur_ns: field_u64(line, "dur_ns").unwrap_or(0),
            },
            "charge" => EventKind::Charge {
                op: req_name("op", &categories::ON_SHARD)?,
                ns: req_u64("ns")?,
            },
            "pcr_extend" => EventKind::PcrExtend {
                index: req_u32("index")?,
                locality: req_u8("locality")?,
            },
            "pcr_reset" => EventKind::PcrReset {
                index: req_u32("index")?,
                locality: req_u8("locality")?,
            },
            "dev_protect" => EventKind::DevProtect {
                base: req_u64("base")?,
                len: req_u64("len")?,
            },
            "dev_release" => EventKind::DevRelease {
                count: req_u64("count")?,
            },
            "interrupts" => EventKind::InterruptsChanged {
                enabled: field_bool(line, "enabled")
                    .ok_or_else(|| format!("missing enabled: {line}"))?,
            },
            "skinit" => EventKind::Skinit {
                slb_base: req_u64("slb_base")?,
                slb_len: req_u64("slb_len")?,
            },
            "zeroize" => EventKind::Zeroize {
                base: req_u64("base")?,
                len: req_u64("len")?,
            },
            "fault" => EventKind::FaultInjected {
                fault: req_str("fault")?,
            },
            "os_suspend" => EventKind::OsSuspend,
            "os_resume" => EventKind::OsResume,
            "reboot" => EventKind::Reboot,
            "farm" => EventKind::Farm {
                action: req_str("action")?,
                request: req_u64("request")?,
                machine: req_u64("machine")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        let ctx = match field_u64(line, "req") {
            Some(request) => Some(RequestCtx {
                request,
                attempt: match field_u64(line, "attempt") {
                    Some(_) => req_u32("attempt")?,
                    None => 1,
                },
            }),
            None => None,
        };
        Ok(Event { at, kind, ctx })
    }
}

/// Reads the required number `key` of a `kind` line into its field's
/// type. A value that does not fit is an error naming the field, never a
/// silent truncation: `"locality":260` must not replay as locality 4.
fn req_num<T: TryFrom<u64>>(line: &str, kind: &str, key: &str) -> Result<T, String> {
    let v = field_u64(line, key).ok_or_else(|| format!("missing {key} in {kind} event"))?;
    T::try_from(v).map_err(|_| format!("{key} {v} out of range in {kind} event"))
}

/// Finds `"key":` in `line` and returns the byte offset just past the colon.
fn value_offset(line: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\":");
    line.find(&needle).map(|i| i + needle.len())
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[value_offset(line, key)?..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    let rest = &line[value_offset(line, key)?..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Reads the string `key`, decoding every JSON escape: the eight short
/// forms and `\uXXXX`, a surrogate pair as one character. Any other
/// escape is an error naming the field, never a guess at what was meant.
fn field_str(line: &str, key: &str) -> Result<String, String> {
    let rest = value_offset(line, key)
        .and_then(|i| line[i..].strip_prefix('"'))
        .ok_or_else(|| format!("missing {key}"))?;
    let bad = |what: &str| format!("{key}: {what}");
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        let c = match c {
            '"' => return Ok(out),
            '\\' => match chars.next() {
                Some('"') => '"',
                Some('\\') => '\\',
                Some('/') => '/',
                Some('b') => '\u{8}',
                Some('f') => '\u{c}',
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('u') => match hex4(&mut chars) {
                    // A high surrogate pairs with the low one escaped next.
                    Some(hi @ 0xD800..0xDC00)
                        if chars.next() == Some('\\') && chars.next() == Some('u') =>
                    {
                        hex4(&mut chars)
                            .filter(|lo| (0xDC00..0xE000).contains(lo))
                            .map(|lo| 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                    }
                    code => code,
                }
                .and_then(char::from_u32)
                .ok_or_else(|| bad("bad \\u escape or unpaired surrogate"))?,
                Some(other) => return Err(bad(&format!("invalid escape \\{other}"))),
                None => break,
            },
            c => c,
        };
        out.push(c);
    }
    Err(bad("unterminated string"))
}

/// Four hex digits of a `\u` escape as a code unit.
fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    (0..4).try_fold(0, |acc, _| Some(acc * 16 + chars.next()?.to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: Event) {
        let line = e.to_jsonl();
        let back = Event::from_jsonl(&line).expect("parses");
        assert_eq!(back, e, "line was {line}");
    }

    #[test]
    fn every_kind_round_trips() {
        let at = Duration::from_micros(1234);
        for kind in [
            EventKind::SessionStart { id: 7 },
            EventKind::SessionEnd { id: 7 },
            EventKind::PhaseStart {
                name: phases::SKINIT,
            },
            EventKind::PhaseEnd {
                name: phases::SKINIT,
            },
            EventKind::TpmCommand {
                ordinal: "TPM_Seal".into(),
                locality: 0,
                dur_ns: 417_000,
            },
            EventKind::Charge {
                op: categories::TPM_BACKOFF,
                ns: 1_000_000,
            },
            EventKind::PcrExtend {
                index: 17,
                locality: 4,
            },
            EventKind::PcrReset {
                index: 17,
                locality: 4,
            },
            EventKind::DevProtect {
                base: 0x10_0000,
                len: 0x1_0000,
            },
            EventKind::DevRelease { count: 2 },
            EventKind::InterruptsChanged { enabled: false },
            EventKind::Skinit {
                slb_base: 0x10_0000,
                slb_len: 4736,
            },
            EventKind::Zeroize {
                base: 0,
                len: u64::MAX,
            },
            EventKind::FaultInjected {
                fault: "torn_nv_write".into(),
            },
            EventKind::OsSuspend,
            EventKind::OsResume,
            EventKind::Reboot,
            EventKind::Farm {
                action: "quarantine".into(),
                request: 0,
                machine: 3,
            },
        ] {
            round_trip(Event::new(at, kind.clone()));
            round_trip(Event {
                at,
                kind,
                ctx: Some(RequestCtx {
                    request: 42,
                    attempt: 3,
                }),
            });
        }
    }

    #[test]
    fn strings_with_specials_round_trip() {
        for fault in [
            "weird \"name\"\\with\nspecials",
            "tab\there, cr\rthere, \u{1} and a/slash",
        ] {
            round_trip(Event::new(
                Duration::ZERO,
                EventKind::FaultInjected {
                    fault: fault.into(),
                },
            ));
        }
    }

    #[test]
    fn every_json_escape_decodes_and_others_are_rejected() {
        let fault = |escaped: &str| {
            Event::from_jsonl(&format!(
                r#"{{"at_ns":1,"kind":"fault","fault":"{escaped}"}}"#
            ))
            .map(|e| match e.kind {
                EventKind::FaultInjected { fault } => fault,
                other => panic!("{other:?}"),
            })
        };
        for (escaped, decoded) in [
            (r"a\tb", "a\tb"),
            (r"a\/b", "a/b"),
            (r"a\rb", "a\rb"),
            (r"a\bb", "a\u{8}b"),
            (r"a\fb", "a\u{c}b"),
            (r#"\"\\\n"#, "\"\\\n"),
            (r"\u0041\u00e9", "A\u{e9}"),
            (r"\ud83d\ude00", "\u{1f600}"),
        ] {
            assert_eq!(fault(escaped).as_deref(), Ok(decoded), "{escaped}");
        }
        for escaped in [r"a\qb", r"\u12", r"\ud83d", r"\ud83dx\ude00", r"\ude00"] {
            let err = fault(escaped).expect_err(escaped);
            assert!(err.starts_with("fault: "), "{escaped}: {err}");
        }
    }

    #[test]
    fn names_outside_their_closed_set_are_rejected_with_their_field() {
        for (line, field) in [
            (
                r#"{"at_ns":1,"kind":"phase_start","name":"phase.nap"}"#,
                "name",
            ),
            (
                r#"{"at_ns":1,"kind":"phase_end","name":"phase.Suspend"}"#,
                "name",
            ),
            (r#"{"at_ns":1,"kind":"charge","op":"gpu","ns":5}"#, "op"),
        ] {
            let err = Event::from_jsonl(line).expect_err(line);
            assert!(err.contains(&format!("unknown {field}")), "{line}: {err}");
        }
        for name in phases::ALL {
            round_trip(Event::new(Duration::ZERO, EventKind::PhaseEnd { name }));
        }
        for op in categories::ON_SHARD {
            round_trip(Event::new(Duration::ZERO, EventKind::Charge { op, ns: 1 }));
        }
    }

    #[test]
    fn request_field_does_not_shadow_ctx() {
        // A `farm` event has its own "request" field; the optional ctx
        // "req" field must neither collide with it on write nor be
        // mistaken for it on read.
        let e = Event {
            at: Duration::from_micros(5),
            kind: EventKind::Farm {
                action: "running".into(),
                request: 9,
                machine: 1,
            },
            ctx: Some(RequestCtx {
                request: 9,
                attempt: 2,
            }),
        };
        round_trip(e.clone());
        let bare = Event::new(
            Duration::from_micros(5),
            EventKind::Farm {
                action: "running".into(),
                request: 9,
                machine: 1,
            },
        );
        let back = Event::from_jsonl(&bare.to_jsonl()).unwrap();
        assert_eq!(back.ctx, None, "no ctx must parse as no ctx");
    }

    #[test]
    fn out_of_range_numbers_are_rejected_with_their_field() {
        for (line, field) in [
            (
                r#"{"at_ns":1,"kind":"pcr_reset","index":17,"locality":260}"#,
                "locality",
            ),
            (
                r#"{"at_ns":1,"kind":"tpm_command","ordinal":"TPM_Unseal","locality":256}"#,
                "locality",
            ),
            (
                r#"{"at_ns":1,"kind":"pcr_extend","index":4294967313,"locality":4}"#,
                "index",
            ),
            (
                r#"{"at_ns":1,"kind":"os_resume","req":9,"attempt":4294967297}"#,
                "attempt",
            ),
        ] {
            let err = Event::from_jsonl(line).expect_err(line);
            assert!(err.contains(field), "{line}: {err}");
        }
        // The largest values that fit still parse.
        let e = Event::from_jsonl(
            r#"{"at_ns":1,"kind":"pcr_reset","index":4294967295,"locality":255,"req":9,"attempt":4294967295}"#,
        )
        .unwrap();
        assert_eq!(
            e.kind,
            EventKind::PcrReset {
                index: u32::MAX,
                locality: u8::MAX,
            }
        );
        assert_eq!(e.ctx.map(|c| c.attempt), Some(u32::MAX));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::from_jsonl("not json").is_err());
        assert!(Event::from_jsonl("{\"at_ns\":1,\"kind\":\"no_such_kind\"}").is_err());
        assert!(Event::from_jsonl("{\"at_ns\":1,\"kind\":\"skinit\"}").is_err());
    }
}
