//! Task labels: which request, stage and run a simulated task belongs
//! to.
//!
//! A task lowered from a pipeline plan carries its identity as fields —
//! the model name (shared with the model graph, so a label costs a
//! reference-count increment), the request index, the pipeline slot and,
//! for an operator-fallback stage, the run index. The text form
//! `{model}#{request}@s{slot}` (or `…@s{slot}r{run}`) is rendered only
//! where a label is printed: event-log task lines, the Chrome export,
//! audit and lint messages and the Gantt chart. Consumers that need the
//! request read it with [`TaskLabel::request`] instead of parsing text.
//!
//! Any other task — a baseline's segment, an engine test, a label read
//! back from a text log — carries free text.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// The label of one simulated task.
///
/// Two labels are equal when they render the same text, so a stage
/// label equals the free-text label a log wrote for it.
#[derive(Debug, Clone)]
pub enum TaskLabel {
    /// One pipeline stage (or one run of a fallback stage) of a request.
    Stage {
        /// The request's model name.
        model: Arc<str>,
        /// The request's original submission index.
        request: usize,
        /// The pipeline slot the stage occupies.
        slot: usize,
        /// The run index within an operator-fallback stage.
        run: Option<usize>,
    },
    /// Free-form text.
    Text(Arc<str>),
}

impl TaskLabel {
    /// The label of request `request`'s stage at pipeline slot `slot`.
    pub fn stage(model: Arc<str>, request: usize, slot: usize) -> Self {
        TaskLabel::Stage {
            model,
            request,
            slot,
            run: None,
        }
    }

    /// The label of run `run` of an operator-fallback stage.
    pub fn fallback_run(model: Arc<str>, request: usize, slot: usize, run: usize) -> Self {
        TaskLabel::Stage {
            model,
            request,
            slot,
            run: Some(run),
        }
    }

    /// The request this task works for: the field of a stage label, or
    /// the index a free-text label encodes in the stage-label shape
    /// ([`request_of_label`]). Equals `request_of_label(&label.to_string())`
    /// for every label.
    pub fn request(&self) -> Option<usize> {
        match self {
            TaskLabel::Stage { request, .. } => Some(*request),
            TaskLabel::Text(text) => request_of_label(text),
        }
    }

    /// The first character of the rendered label (the Gantt chart's
    /// cell glyph), without rendering it.
    pub fn first_char(&self) -> Option<char> {
        match self {
            TaskLabel::Stage { model, .. } => model.chars().next().or(Some('#')),
            TaskLabel::Text(text) => text.chars().next(),
        }
    }
}

/// Extracts the request index from a label in the stage-label text
/// shape `{model}#{request}@s{slot}` (optionally with an `rN` run
/// suffix); labels without that shape (baseline segments, raw engine
/// tests) yield `None`. Used to ingest labels from text logs; a lowered
/// [`TaskLabel`] answers [`TaskLabel::request`] without parsing.
pub fn request_of_label(label: &str) -> Option<usize> {
    let (_, rest) = label.rsplit_once('#')?;
    let (req, _) = rest.split_once('@')?;
    req.parse().ok()
}

impl fmt::Display for TaskLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskLabel::Stage {
                model,
                request,
                slot,
                run,
            } => {
                write!(f, "{model}#{request}@s{slot}")?;
                match run {
                    Some(run) => write!(f, "r{run}"),
                    None => Ok(()),
                }
            }
            TaskLabel::Text(text) => f.write_str(text),
        }
    }
}

impl PartialEq for TaskLabel {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (TaskLabel::Text(a), TaskLabel::Text(b)) => a == b,
            // The stage text is injective in its fields: the model ends
            // at the last `#`, and the suffix holds only canonical
            // decimals. Equal fields are equal text.
            (
                TaskLabel::Stage {
                    model: m1,
                    request: q1,
                    slot: s1,
                    run: r1,
                },
                TaskLabel::Stage {
                    model: m2,
                    request: q2,
                    slot: s2,
                    run: r2,
                },
            ) => q1 == q2 && s1 == s2 && r1 == r2 && m1 == m2,
            _ => self.to_string() == other.to_string(),
        }
    }
}

impl From<&str> for TaskLabel {
    fn from(text: &str) -> Self {
        TaskLabel::Text(text.into())
    }
}

impl From<String> for TaskLabel {
    fn from(text: String) -> Self {
        TaskLabel::Text(text.into())
    }
}

impl Serialize for TaskLabel {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.to_string().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for TaskLabel {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(TaskLabel::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_render_the_lowering_text() {
        let model: Arc<str> = "BERT".into();
        let stage = TaskLabel::stage(model.clone(), 3, 1);
        assert_eq!(stage.to_string(), "BERT#3@s1");
        let run = TaskLabel::fallback_run(model, 0, 2, 4);
        assert_eq!(run.to_string(), "BERT#0@s2r4");
        assert_eq!(stage.request(), Some(3));
        assert_eq!(run.request(), Some(0));
    }

    #[test]
    fn equality_is_equality_of_the_rendered_text() {
        let stage = TaskLabel::stage("ResNet50".into(), 12, 0);
        assert_eq!(stage, TaskLabel::from("ResNet50#12@s0"));
        assert_ne!(stage, TaskLabel::from("ResNet50#12@s0r0"));
        assert_ne!(stage, TaskLabel::stage("ResNet50".into(), 1, 20));
        assert_eq!(TaskLabel::from("a"), TaskLabel::from("a".to_owned()));
    }

    #[test]
    fn text_labels_parse_their_request() {
        assert_eq!(TaskLabel::from("m#7@s0").request(), Some(7));
        assert_eq!(TaskLabel::from("a#b#2@s1r0").request(), Some(2));
        assert_eq!(TaskLabel::from("solo").request(), None);
        assert_eq!(TaskLabel::from("BERT#0@[0..3]").request(), Some(0));
        assert_eq!(request_of_label("BERT#x@s0"), None);
    }

    #[test]
    fn first_char_matches_the_rendered_text() {
        for label in [
            TaskLabel::stage("VGG16".into(), 0, 0),
            TaskLabel::stage("".into(), 4, 1),
            TaskLabel::stage("".into(), 42, 1),
            TaskLabel::from("x"),
            TaskLabel::from(""),
        ] {
            assert_eq!(
                label.first_char(),
                label.to_string().chars().next(),
                "{label}"
            );
        }
    }
}
