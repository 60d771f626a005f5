//! The model file, written and parsed by hand. It is the one document
//! the workspace persists: `csig train` writes it and `csig classify
//! --model` reads it back.
//!
//! The writer emits pretty JSON: two-space indent, `": "` separators,
//! each `f64` at round-trip precision and a non-finite one as `null`.
//! The parser accepts exactly that schema, with any whitespace, any
//! JSON string escape and keys in any order. It rejects anything else,
//! and a tree [`DecisionTree::fit`] could not have built, with an error
//! naming the field and byte offset.

use std::fmt::{self, Write};

use csig_dtree::{DecisionTree, Node, TreeParams};

use super::{ModelMeta, SignatureClassifier};

/// Why a model file was rejected: the field, the byte offset where the
/// text departs from the schema, and the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError(String);

impl ModelError {
    fn at(field: &str, pos: usize, what: impl fmt::Display) -> Self {
        ModelError(format!("`{field}` at byte {pos}: {what}"))
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ModelError {}

type Result<T> = std::result::Result<T, ModelError>;

pub(super) fn write(clf: &SignatureClassifier) -> String {
    let (tree, meta, params) = (&clf.tree, &clf.meta, clf.tree.params());
    let mut out = String::from("{\n  \"tree\": {\n    \"nodes\": ");
    array(&mut out, "      ", tree.nodes(), |out, node| match node {
        Node::Leaf { class, counts } => {
            let _ = write!(
                out,
                r#"{{
        "Leaf": {{
          "class": {class},
          "counts": "#
            );
            array(out, "            ", counts, |out, n| {
                let _ = write!(out, "{n}");
            });
            out.push_str("\n        }\n      }");
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            let _ = write!(
                out,
                r#"{{
        "Split": {{
          "feature": {feature},
          "threshold": {},
          "left": {left},
          "right": {right}
        }}
      }}"#,
                Num(*threshold)
            );
        }
    });
    let _ = write!(
        out,
        r#",
    "dim": {},
    "n_classes": {},
    "params": {{
      "max_depth": {},
      "min_samples_split": {},
      "min_samples_leaf": {}
    }}
  }},
  "meta": {{
    "congestion_threshold": {},
    "trained_on": {},
    "n_train": {},
    "n_filtered": {}
  }}
}}"#,
        tree.dim(),
        tree.n_classes(),
        params.max_depth,
        params.min_samples_split,
        params.min_samples_leaf,
        Num(meta.congestion_threshold),
        Str(&meta.trained_on),
        meta.n_train,
        meta.n_filtered,
    );
    out
}

/// A pretty JSON array: each item on its own line at `indent`, the
/// closing bracket one level (two spaces) out.
fn array<T>(out: &mut String, indent: &str, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "[\n" } else { ",\n" });
        out.push_str(indent);
        item(out, x);
    }
    out.push('\n');
    out.push_str(&indent[2..]);
    out.push(']');
}

/// An `f64` in JSON: shortest round-trip digits, `null` if non-finite.
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{:?}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// A quoted, escaped JSON string.
struct Str<'a>(&'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                '\u{08}' => f.write_str("\\b")?,
                '\u{0c}' => f.write_str("\\f")?,
                c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

pub(super) fn parse(text: &str) -> Result<SignatureClassifier> {
    let mut p = Parser { text, pos: 0 };
    let (mut tree, mut meta) = (None, None);
    p.object("model", &["tree", "meta"], |p, key| {
        if key == "tree" {
            tree = Some(p.tree()?);
        } else {
            meta = Some(p.meta()?);
        }
        Ok(())
    })?;
    if p.peek().is_some() {
        return Err(p.err("model", "trailing input after the model"));
    }
    let (Some(tree), Some(meta)) = (tree, meta) else {
        unreachable!("`object` returns only once every key was read")
    };
    Ok(SignatureClassifier { tree, meta })
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread character (always a char
    /// boundary).
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, field: &str, what: impl fmt::Display) -> ModelError {
        ModelError::at(field, self.pos, what)
    }

    /// What the text holds at the current position, for messages.
    fn found(&self) -> String {
        match self.text[self.pos..].chars().next() {
            Some(c) => format!("found `{}`", c.escape_debug()),
            None => "found the end of the input".into(),
        }
    }

    /// Skip whitespace; the next byte, if any.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, field: &str, byte: u8) -> Result<()> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.err(
                field,
                format!("expected `{}`, {}", byte as char, self.found()),
            ))
        }
    }

    /// An object holding each of `keys` exactly once, in any order;
    /// `value` reads the value of each.
    fn object(
        &mut self,
        field: &str,
        keys: &[&'static str],
        mut value: impl FnMut(&mut Self, &'static str) -> Result<()>,
    ) -> Result<()> {
        self.expect(field, b'{')?;
        let mut seen = vec![false; keys.len()];
        if !self.eat(b'}') {
            loop {
                self.peek();
                let at = self.pos;
                let key = self.string(field)?;
                let Some(k) = keys.iter().position(|k| *k == key) else {
                    return Err(ModelError::at(field, at, format!("unknown key `{key}`")));
                };
                if std::mem::replace(&mut seen[k], true) {
                    return Err(ModelError::at(field, at, format!("duplicate key `{key}`")));
                }
                self.expect(keys[k], b':')?;
                value(self, keys[k])?;
                if !self.eat(b',') {
                    self.expect(field, b'}')?;
                    break;
                }
            }
        }
        match seen.iter().position(|seen| !seen) {
            Some(k) => Err(ModelError::at(
                field,
                self.pos - 1,
                format!("missing key `{}`", keys[k]),
            )),
            None => Ok(()),
        }
    }

    /// An array; `item` reads each element.
    fn array(&mut self, field: &str, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.expect(field, b'[')?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat(b',') {
                return self.expect(field, b']');
            }
        }
    }

    fn string(&mut self, field: &str) -> Result<String> {
        self.expect(field, b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .unwrap_or(rest.len());
            s.push_str(&rest[..run]);
            self.pos += run;
            match self.text.as_bytes().get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape(field)?);
                }
                Some(_) => return Err(self.err(field, "unescaped control character in a string")),
                None => return Err(self.err(field, "unterminated string")),
            }
        }
    }

    /// The character an escape sequence stands for, read after its
    /// backslash.
    fn escape(&mut self, field: &str) -> Result<char> {
        let Some(c) = self.text[self.pos..].chars().next() else {
            return Err(self.err(field, "unterminated string"));
        };
        let plain = match c {
            '"' | '\\' | '/' => c,
            'b' => '\u{08}',
            'f' => '\u{0c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                self.pos += 1;
                let at = self.pos;
                let mut code = self.hex4(field)?;
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4(field)?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                // A surrogate left in `code` is no `char`.
                return char::from_u32(code).ok_or_else(|| {
                    ModelError::at(field, at, "unpaired surrogate in a `\\u` escape")
                });
            }
            _ => return Err(self.err(field, format!("invalid escape `\\{}`", c.escape_debug()))),
        };
        self.pos += 1;
        Ok(plain)
    }

    fn hex4(&mut self, field: &str) -> Result<u32> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err(field, "expected four hex digits in a `\\u` escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// The text of a JSON number: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self, field: &str) -> Result<&str> {
        self.peek();
        let (start, b) = (self.pos, self.text.as_bytes());
        let digits = |at: &mut usize| {
            let from = *at;
            while b.get(*at).is_some_and(u8::is_ascii_digit) {
                *at += 1;
            }
            *at > from
        };
        let mut end = start + usize::from(b.get(start) == Some(&b'-'));
        let int = end;
        let mut ok = digits(&mut end) && (b[int] != b'0' || end == int + 1);
        if ok && b.get(end) == Some(&b'.') {
            end += 1;
            ok = digits(&mut end);
        }
        if ok && matches!(b.get(end), Some(b'e' | b'E')) {
            end += 1;
            end += usize::from(matches!(b.get(end), Some(b'+' | b'-')));
            ok = digits(&mut end);
        }
        if !ok {
            return Err(self.err(field, format!("expected a number, {}", self.found())));
        }
        self.pos = end;
        Ok(&self.text[start..end])
    }

    /// A non-negative integer literal.
    fn usize(&mut self, field: &str) -> Result<usize> {
        self.peek();
        let at = self.pos;
        let text = self.number(field)?;
        let what = if text.starts_with('-') {
            "a non-negative integer"
        } else if text.contains(['.', 'e', 'E']) {
            "an integer"
        } else {
            return text
                .parse()
                .map_err(|_| ModelError::at(field, at, format!("`{text}` is out of range")));
        };
        Err(ModelError::at(
            field,
            at,
            format!("expected {what}, found `{text}`"),
        ))
    }

    /// A finite number, or `null` for the non-finite value the writer
    /// wrote as `null` (read back as NaN).
    fn f64(&mut self, field: &str) -> Result<f64> {
        if self.peek().is_some() && self.text[self.pos..].starts_with("null") {
            self.pos += 4;
            return Ok(f64::NAN);
        }
        let at = self.pos;
        let text = self.number(field)?;
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            _ => Err(ModelError::at(
                field,
                at,
                format!("`{text}` is out of range"),
            )),
        }
    }

    fn tree(&mut self) -> Result<DecisionTree> {
        self.peek();
        let at = self.pos;
        let (mut nodes, mut dim, mut n_classes) = (Vec::new(), 0, 0);
        let mut params = TreeParams::default();
        self.object(
            "tree",
            &["nodes", "dim", "n_classes", "params"],
            |p, key| {
                match key {
                    "nodes" => p.array(key, |p| {
                        nodes.push(p.node()?);
                        Ok(())
                    })?,
                    "dim" => dim = p.usize(key)?,
                    "n_classes" => n_classes = p.usize(key)?,
                    _ => p.object(
                        key,
                        &["max_depth", "min_samples_split", "min_samples_leaf"],
                        |p, key| {
                            let n = p.usize(key)?;
                            match key {
                                "max_depth" => params.max_depth = n,
                                "min_samples_split" => params.min_samples_split = n,
                                _ => params.min_samples_leaf = n,
                            }
                            Ok(())
                        },
                    )?,
                }
                Ok(())
            },
        )?;
        let invalid = |what: String| ModelError::at("tree", at, what);
        if dim != 2 {
            return Err(invalid(format!(
                "`dim` is {dim}, but a signature model has 2 features (NormDiff, CoV)"
            )));
        }
        if n_classes > 2 {
            return Err(invalid(format!(
                "`n_classes` is {n_classes}, but a signature model has at most 2 (self, external)"
            )));
        }
        DecisionTree::from_parts(nodes, dim, n_classes, params).map_err(invalid)
    }

    /// One node: `{"Leaf": {...}}` or `{"Split": {...}}`.
    fn node(&mut self) -> Result<Node> {
        self.expect("nodes", b'{')?;
        self.peek();
        let at = self.pos;
        let variant = self.string("nodes")?;
        self.expect("nodes", b':')?;
        let node = match variant.as_str() {
            "Leaf" => {
                let (mut class, mut counts) = (0, Vec::new());
                self.object("Leaf", &["class", "counts"], |p, key| {
                    if key == "class" {
                        class = p.usize(key)?;
                        Ok(())
                    } else {
                        p.array(key, |p| {
                            counts.push(p.usize(key)?);
                            Ok(())
                        })
                    }
                })?;
                Node::Leaf { class, counts }
            }
            "Split" => {
                let (mut feature, mut threshold, mut left, mut right) = (0, 0.0, 0, 0);
                self.object(
                    "Split",
                    &["feature", "threshold", "left", "right"],
                    |p, key| {
                        match key {
                            "feature" => feature = p.usize(key)?,
                            "threshold" => threshold = p.f64(key)?,
                            "left" => left = p.usize(key)?,
                            _ => right = p.usize(key)?,
                        }
                        Ok(())
                    },
                )?;
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                }
            }
            _ => {
                return Err(ModelError::at(
                    "nodes",
                    at,
                    format!("unknown variant `{variant}`, expected `Leaf` or `Split`"),
                ))
            }
        };
        self.expect("nodes", b'}')?;
        Ok(node)
    }

    fn meta(&mut self) -> Result<ModelMeta> {
        let mut meta = ModelMeta {
            congestion_threshold: 0.0,
            trained_on: String::new(),
            n_train: 0,
            n_filtered: 0,
        };
        let keys = [
            "congestion_threshold",
            "trained_on",
            "n_train",
            "n_filtered",
        ];
        self.object("meta", &keys, |p, key| {
            match key {
                "congestion_threshold" => meta.congestion_threshold = p.f64(key)?,
                "trained_on" => meta.trained_on = p.string(key)?,
                "n_train" => meta.n_train = p.usize(key)?,
                _ => meta.n_filtered = p.usize(key)?,
            }
            Ok(())
        })?;
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::tests::{meta, synthetic_dataset};
    use csig_dtree::Dataset;
    use csig_features::FlowFeatures;

    /// [`pinned_model`]'s file byte for byte as the serde-based writer
    /// this one replaced wrote it, so model files from before and after
    /// the change are interchangeable.
    const PINNED: &str = r#"{
  "tree": {
    "nodes": [
      {
        "Split": {
          "feature": 1,
          "threshold": 0.15,
          "left": 1,
          "right": 2
        }
      },
      {
        "Leaf": {
          "class": 1,
          "counts": [
            0,
            2
          ]
        }
      },
      {
        "Split": {
          "feature": 0,
          "threshold": 0.44999999999999996,
          "left": 3,
          "right": 4
        }
      },
      {
        "Leaf": {
          "class": 0,
          "counts": [
            1,
            0
          ]
        }
      },
      {
        "Leaf": {
          "class": 0,
          "counts": [
            2,
            1
          ]
        }
      }
    ],
    "dim": 2,
    "n_classes": 2,
    "params": {
      "max_depth": 2,
      "min_samples_split": 2,
      "min_samples_leaf": 1
    }
  },
  "meta": {
    "congestion_threshold": 0.30000000000000004,
    "trained_on": "pinned \"model\" \\ tab\t nl\n bell\u0007 café 😀",
    "n_train": 6,
    "n_filtered": 1
  }
}"#;

    fn pinned_model() -> SignatureClassifier {
        let mut d = Dataset::new();
        for (x, label) in [
            ([0.1, 0.0], 1),
            ([0.2, 1.0], 0),
            ([0.2, 0.0], 1),
            ([0.7, 0.3], 0),
            ([0.7, 0.3], 1),
            ([0.9, 0.3], 0),
        ] {
            d.push(x.to_vec(), label);
        }
        let meta = ModelMeta {
            congestion_threshold: 0.1 + 0.2,
            trained_on: "pinned \"model\" \\ tab\t nl\n bell\u{7} caf\u{e9} \u{1F600}".into(),
            n_train: 6,
            n_filtered: 1,
        };
        SignatureClassifier::train(&d, TreeParams::with_depth(2), meta)
    }

    /// A model with one split at `threshold` over two leaves.
    fn stump(threshold: f64, congestion_threshold: f64, trained_on: &str) -> SignatureClassifier {
        let leaf = |class| Node::Leaf {
            class,
            counts: vec![1 - class, class],
        };
        let nodes = vec![
            Node::Split {
                feature: 0,
                threshold,
                left: 1,
                right: 2,
            },
            leaf(0),
            leaf(1),
        ];
        SignatureClassifier {
            tree: DecisionTree::from_parts(nodes, 2, 2, TreeParams::default()).expect("valid"),
            meta: ModelMeta {
                congestion_threshold,
                trained_on: trained_on.into(),
                n_train: 2,
                n_filtered: 0,
            },
        }
    }

    fn round_trip(clf: &SignatureClassifier) -> SignatureClassifier {
        SignatureClassifier::from_json(&clf.to_json()).expect("the writer's output parses")
    }

    fn error(text: &str) -> String {
        match SignatureClassifier::from_json(text) {
            Ok(_) => panic!("accepted a malformed model:\n{text}"),
            Err(e) => e.to_string(),
        }
    }

    /// The error for [`PINNED`] with its first `from` replaced by `to`.
    fn error_after(from: &str, to: &str) -> String {
        let text = PINNED.replacen(from, to, 1);
        assert_ne!(text, PINNED, "`{from}` is not in the pinned model");
        error(&text)
    }

    /// [`PINNED`]'s tree with `nodes` as its node list.
    fn with_nodes(nodes: &str) -> String {
        let start = PINNED.find("\"nodes\": ").expect("nodes") + "\"nodes\": ".len();
        let end = PINNED.find(",\n    \"dim\"").expect("dim");
        format!("{}[{nodes}]{}", &PINNED[..start], &PINNED[end..])
    }

    #[test]
    fn writes_the_pinned_format() {
        assert_eq!(pinned_model().to_json(), PINNED);
    }

    #[test]
    fn round_trip_preserves_the_model_and_its_predictions() {
        let data = synthetic_dataset(50, 9);
        let clf = SignatureClassifier::train(&data, TreeParams::default(), meta());
        let back = round_trip(&clf);
        assert_eq!(format!("{back:?}"), format!("{clf:?}"));
        assert_eq!(back.tree.predict_all(&data), clf.tree.predict_all(&data));
        let f = FlowFeatures {
            norm_diff: 0.7,
            cov: 0.25,
            samples: 15,
            min_rtt_ms: 20.0,
            max_rtt_ms: 70.0,
        };
        assert_eq!(clf.classify(&f), back.classify(&f));
        assert_eq!(back.to_json(), clf.to_json());
    }

    #[test]
    fn round_trip_keeps_every_float_bit_equal() {
        for x in [
            0.1 + 0.2,
            5e-324,
            1e300,
            -1e300,
            -0.0,
            0.0,
            -1.5e3,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let back = round_trip(&stump(x, x, "x"));
            let Node::Split { threshold, .. } = back.tree.nodes()[0] else {
                panic!("root is not a split")
            };
            assert_eq!(threshold.to_bits(), x.to_bits(), "threshold {x:?}");
            let y = back.meta.congestion_threshold;
            assert_eq!(y.to_bits(), x.to_bits(), "congestion_threshold {x:?}");
        }
    }

    #[test]
    fn non_finite_floats_are_written_as_null_and_read_back_as_nan() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let clf = stump(x, x, "x");
            let json = clf.to_json();
            assert!(json.contains("\"threshold\": null,"), "{json}");
            assert!(json.contains("\"congestion_threshold\": null,"), "{json}");
            let back = round_trip(&clf);
            assert!(back.meta.congestion_threshold.is_nan());
        }
    }

    #[test]
    fn round_trip_keeps_any_string() {
        let mut s: String = (0u8..0x20).map(char::from).collect();
        s.push_str("\"quoted\" back\\slash /slash \u{7f} caf\u{e9} \u{2028} \u{FFFF} \u{1F600}");
        let back = round_trip(&stump(0.5, 0.7, &s));
        assert_eq!(back.meta.trained_on, s);
    }

    #[test]
    fn accepts_any_whitespace_key_order_and_string_escape() {
        let text = "\r\n{ \"meta\":{\"n_filtered\":1,\"n_train\":6,\t\"trained_on\":\
            \"pinned \\u0022model\\\" \\\\ tab\\u0009 nl\\n bell\\u0007 caf\\u00E9 \\uD83D\\ude00\",\
            \"congestion_threshold\":0.30000000000000004},\n\"tree\":{\"params\":\
            {\"min_samples_leaf\":1,\"min_samples_split\":2,\"max_depth\":2},\"n_classes\":2,\
            \"dim\":2,\"nodes\":[{\"Split\":{\"right\":2,\"left\":1,\"threshold\":1.5e-1,\
            \"feature\":1}},{\"Leaf\":{\"counts\":[0,2],\"class\":1}},{\"Split\":{\"feature\":0,\
            \"threshold\":4.4999999999999996E-1,\"left\":3,\"right\":4}},{\"Leaf\":{\"class\":0,\
            \"counts\":[1,0]}} , { \"Leaf\" : { \"counts\" : [ 2 , 1 ] , \"class\" : 0 } } ] } }\t ";
        let clf = SignatureClassifier::from_json(text).expect("valid model");
        assert_eq!(format!("{clf:?}"), format!("{:?}", pinned_model()));
        let slash = PINNED.replacen("bell", "\\/\\b\\f\\r", 1);
        let clf = SignatureClassifier::from_json(&slash).expect("valid model");
        assert!(clf.meta.trained_on.contains("nl\n /\u{8}\u{c}\r\u{7}"));
    }

    #[test]
    fn rejects_malformed_strings() {
        for (bad, want) in [
            ("\\ud83d x", "unpaired surrogate"),
            ("\\ude00", "unpaired surrogate"),
            ("\\ud83d\\u0041", "unpaired surrogate"),
            ("\\u12G4", "four hex digits"),
            ("\\x", "invalid escape `\\x`"),
            ("\\\u{e9}", "invalid escape"),
            ("\u{1}", "unescaped control character"),
        ] {
            let err = error_after("bell", bad);
            assert!(err.starts_with("`trained_on` at byte "), "{err}");
            assert!(err.contains(want), "{bad:?}: {err}");
        }
    }

    #[test]
    fn rejects_a_missing_key() {
        let text = PINNED.replacen("    \"dim\": 2,\n", "", 1);
        let at = text.find("\n  },\n  \"meta\"").expect("tree end") + 3;
        assert_eq!(
            error(&text),
            format!("`tree` at byte {at}: missing key `dim`")
        );
        let err = error_after("\"class\": 1,", "");
        assert!(
            err.contains("`Leaf` at byte") && err.ends_with("missing key `class`"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_duplicate_key() {
        let text = PINNED.replacen("\"dim\": 2,", "\"dim\": 2, \"dim\": 2,", 1);
        let at = text.find("\"dim\": 2,").expect("dim") + "\"dim\": 2, ".len();
        assert_eq!(
            error(&text),
            format!("`tree` at byte {at}: duplicate key `dim`")
        );
    }

    #[test]
    fn rejects_an_unknown_key() {
        let text = PINNED.replacen("\"n_train\"", "\"n_trained\"", 1);
        let at = text.find("\"n_trained\"").expect("key");
        assert_eq!(
            error(&text),
            format!("`meta` at byte {at}: unknown key `n_trained`")
        );
    }

    #[test]
    fn rejects_an_unknown_variant() {
        let text = PINNED.replacen("\"Leaf\"", "\"Twig\"", 1);
        let at = text.find("\"Twig\"").expect("variant");
        assert_eq!(
            error(&text),
            format!("`nodes` at byte {at}: unknown variant `Twig`, expected `Leaf` or `Split`")
        );
        let both = PINNED.replacen(
            "\n      },\n      {\n        \"Leaf\"",
            ",\n        \"Leaf\"",
            1,
        );
        assert!(error(&both).contains("expected `}`, found `,`"));
    }

    /// The error for [`PINNED`] with the value `from` of the first
    /// `key` replaced by `to`, which must be the error at the key and
    /// the byte where `to` starts.
    fn value_error(key: &str, from: &str, to: &str, want: &str) {
        let from = format!("\"{key}\": {from}");
        let at = PINNED.find(&from).expect("key and value") + key.len() + 4;
        let err = error_after(&from, &format!("\"{key}\": {to}"));
        assert_eq!(err, format!("`{key}` at byte {at}: {want}"));
    }

    #[test]
    fn rejects_a_wrong_type() {
        value_error("dim", "2", "\"2\"", "expected a number, found `\\\"`");
        value_error("nodes", "[", "{", "expected `[`, found `{`");
        value_error("counts", "[", "0,", "expected `[`, found `0`");
        value_error("n_train", "6", "[6]", "expected a number, found `[`");
        value_error("trained_on", "\"", "7, \"", "expected `\"`, found `7`");
        value_error("threshold", "0.15", "true", "expected a number, found `t`");
        value_error("meta", "{", "null, \"x\": {", "expected `{`, found `n`");
    }

    #[test]
    fn rejects_a_negative_or_fractional_integer() {
        value_error(
            "left",
            "1",
            "-1",
            "expected a non-negative integer, found `-1`",
        );
        value_error(
            "right",
            "2",
            "-0",
            "expected a non-negative integer, found `-0`",
        );
        value_error("class", "1", "1.0", "expected an integer, found `1.0`");
        value_error("n_train", "6", "6e0", "expected an integer, found `6e0`");
        let huge = "99999999999999999999";
        value_error("max_depth", "2", huge, &format!("`{huge}` is out of range"));
    }

    #[test]
    fn rejects_a_malformed_number() {
        for bad in [
            "01", "1.", ".5", "-", "+1", "1e", "1e400", "NaN", "Infinity",
        ] {
            let err = error_after("0.30000000000000004", bad);
            assert!(
                err.starts_with("`congestion_threshold` at byte "),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn rejects_trailing_input() {
        for tail in ["x", " {}", "\n}", ",", "\u{0}"] {
            let text = format!("{PINNED}{tail}");
            let at = PINNED.len() + tail.len() - tail.trim_start().len();
            assert_eq!(
                error(&text),
                format!("`model` at byte {at}: trailing input after the model")
            );
        }
        assert!(SignatureClassifier::from_json(&format!(" {PINNED}\n\t ")).is_ok());
    }

    #[test]
    fn rejects_every_truncation() {
        for (end, _) in PINNED.char_indices() {
            let err = error(&PINNED[..end]);
            assert!(err.contains(" at byte "), "{err}");
        }
    }

    #[test]
    fn whatever_a_corruption_leaves_parses_to_a_model_that_predicts() {
        let probes = [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [f64::NAN, -1.0]];
        for (at, c) in PINNED.char_indices() {
            for to in ["0", "9", "-", "\"", "{", "]", ",", " ", ""] {
                let text = format!("{}{to}{}", &PINNED[..at], &PINNED[at + c.len_utf8()..]);
                if let Ok(clf) = SignatureClassifier::from_json(&text) {
                    for x in probes {
                        let class = clf.tree.predict(&x);
                        assert!(class < 2, "{text}");
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_an_empty_tree() {
        assert_eq!(
            error(&with_nodes("")),
            "`tree` at byte 12: the tree has no nodes"
        );
    }

    #[test]
    fn rejects_a_cycle() {
        let err = error_after("\"left\": 1", "\"left\": 0");
        assert_eq!(
            err,
            "`tree` at byte 12: node 0: `left` 0 is outside 1..5 (a child comes after its parent)"
        );
        let err = error_after("\"right\": 4", "\"right\": 1");
        assert!(err.ends_with("node 2: `right` 1 is outside 3..5 (a child comes after its parent)"));
    }

    #[test]
    fn rejects_a_child_past_the_arena() {
        let err = error_after("\"right\": 4", "\"right\": 5");
        assert!(err.ends_with("node 2: `right` 5 is outside 3..5 (a child comes after its parent)"));
        let err = error_after("\"right\": 4", "\"right\": 18446744073709551615");
        assert!(
            err.contains("node 2: `right` 18446744073709551615 is outside"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_shared_child() {
        let err = error_after("\"right\": 2", "\"right\": 3");
        assert!(
            err.ends_with("node 2: `left` 3 is already a child of node 0"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_feature_outside_dim() {
        let err = error_after("\"feature\": 1", "\"feature\": 2");
        assert!(
            err.ends_with("node 0: `feature` 2 is not below `dim` 2"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_class_outside_n_classes() {
        let err = error_after("\"class\": 1", "\"class\": 2");
        assert!(
            err.ends_with("node 1: `class` 2 is not below `n_classes` 2"),
            "{err}"
        );
    }

    #[test]
    fn rejects_counts_not_one_per_class() {
        let err = error_after("\"counts\": [", "\"counts\": [7, ");
        assert!(
            err.ends_with("node 1: `counts` has 3 entries, not `n_classes` 2"),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_dim_other_than_two() {
        let err = error_after("\"dim\": 2", "\"dim\": 3");
        assert!(err.ends_with("`dim` is 3, but a signature model has 2 features (NormDiff, CoV)"));
    }

    #[test]
    fn rejects_more_than_two_classes() {
        let err = error_after("\"n_classes\": 2", "\"n_classes\": 3");
        assert!(err.contains("`n_classes` is 3"), "{err}");
    }
}
