//! The interpretation rule engine.
//!
//! Analytics emits *facts* (a metric crossed a threshold, a recommender
//! ranked an item, a detector fired). AR needs *directives* (draw this
//! label there, highlight that, raise an alert). The
//! [`InterpretationEngine`] holds declarative [`Rule`]s mapping one to
//! the other under the current [`UserContext`] — the collaborative
//! bridge §4.2 argues both sides must meet at.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::arml::FeatureId;
use crate::error::SemanticError;

/// An analytics output offered to the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fact {
    /// Metric or event name, e.g. `"heart_rate"`, `"recommendation"`.
    pub name: String,
    /// The subject entity (patient, product, POI) as a feature id.
    pub subject: FeatureId,
    /// Numeric value (rate, score, count...).
    pub value: f64,
    /// Additional string attributes, e.g. `"category" → "food"`.
    pub attrs: BTreeMap<String, String>,
}

impl Fact {
    /// Creates a fact with no attributes.
    pub fn new(name: &str, subject: FeatureId, value: f64) -> Self {
        Fact {
            name: name.to_string(),
            subject,
            value,
            attrs: BTreeMap::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attr(mut self, key: &str, value: &str) -> Self {
        self.attrs.insert(key.to_string(), value.to_string());
        self
    }
}

/// The user-side context rules can reference.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct UserContext {
    /// Current activity, e.g. `"shopping"`, `"driving"`, `"touring"`.
    pub activity: String,
    /// Interest tags (categories the user cares about).
    pub interests: Vec<String>,
    /// Whether the user opted in to health monitoring.
    pub health_monitoring: bool,
}

/// Conditions a rule can test. All listed conditions must hold (AND).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Condition {
    /// Fact name equals.
    FactIs(String),
    /// Fact value at or above a threshold.
    ValueAtLeast(f64),
    /// Fact value at or below a threshold.
    ValueAtMost(f64),
    /// Fact attribute equals.
    AttrIs(String, String),
    /// User activity equals.
    ActivityIs(String),
    /// Fact attribute value appears in the user's interests.
    AttrInInterests(String),
    /// User has health monitoring enabled.
    HealthMonitoringOn,
}

impl Condition {
    fn holds(&self, fact: &Fact, ctx: &UserContext) -> bool {
        match self {
            Condition::FactIs(n) => fact.name == *n,
            Condition::ValueAtLeast(t) => fact.value >= *t,
            Condition::ValueAtMost(t) => fact.value <= *t,
            Condition::AttrIs(k, v) => fact.attrs.get(k) == Some(v),
            Condition::ActivityIs(a) => ctx.activity == *a,
            Condition::AttrInInterests(k) => fact
                .attrs
                .get(k)
                .map(|v| ctx.interests.iter().any(|i| i == v))
                .unwrap_or(false),
            Condition::HealthMonitoringOn => ctx.health_monitoring,
        }
    }
}

/// AR-side actions the engine can emit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Directive {
    /// Attach a text label to the subject.
    ShowLabel {
        /// Target feature.
        subject: FeatureId,
        /// Label text (template-expanded).
        text: String,
        /// Display priority in `[0, 1]`.
        priority: f64,
    },
    /// Outline the subject ("x-ray" contour).
    Highlight {
        /// Target feature.
        subject: FeatureId,
        /// RGB colour.
        color: u32,
    },
    /// Raise a modal alert (health, safety).
    Alert {
        /// Target feature.
        subject: FeatureId,
        /// Alert text.
        text: String,
        /// Severity in `[0, 1]`.
        severity: f64,
    },
    /// Suggest navigating to the subject.
    SuggestRoute {
        /// Target feature.
        subject: FeatureId,
        /// Reason shown to the user.
        reason: String,
    },
}

impl Directive {
    /// The feature the directive targets.
    pub fn subject(&self) -> FeatureId {
        match self {
            Directive::ShowLabel { subject, .. }
            | Directive::Highlight { subject, .. }
            | Directive::Alert { subject, .. }
            | Directive::SuggestRoute { subject, .. } => *subject,
        }
    }
}

/// Action templates: `{name}` and `{value}` expand from the fact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActionTemplate {
    /// Emit a [`Directive::ShowLabel`].
    ShowLabel {
        /// Text template.
        text: String,
        /// Display priority.
        priority: f64,
    },
    /// Emit a [`Directive::Highlight`].
    Highlight {
        /// RGB colour.
        color: u32,
    },
    /// Emit a [`Directive::Alert`] with severity scaled from the value
    /// by `severity_per_unit` (clamped to 1.0).
    Alert {
        /// Text template.
        text: String,
        /// Severity per fact-value unit.
        severity_per_unit: f64,
    },
    /// Emit a [`Directive::SuggestRoute`].
    SuggestRoute {
        /// Reason template.
        reason: String,
    },
}

/// A declarative interpretation rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Rule name (reports and tracing).
    pub name: String,
    /// All must hold for the rule to fire.
    pub conditions: Vec<Condition>,
    /// The action emitted when it fires.
    pub action: ActionTemplate,
}

impl Rule {
    /// Creates a rule.
    ///
    /// # Errors
    ///
    /// [`SemanticError::InvalidRule`] for an empty condition list (a rule
    /// that always fires is almost certainly a configuration bug).
    pub fn new(
        name: &str,
        conditions: Vec<Condition>,
        action: ActionTemplate,
    ) -> Result<Self, SemanticError> {
        if conditions.is_empty() {
            return Err(SemanticError::InvalidRule("conditions must be non-empty"));
        }
        Ok(Rule {
            name: name.to_string(),
            conditions,
            action,
        })
    }
}

/// Expands `{name}`, `{value}` and then each attribute's `{key}` by
/// sequential replacement: the reference semantics, and the path taken
/// whenever one pass over the split template could give another result.
fn expand(template: &str, fact: &Fact) -> String {
    let mut out = template.replace("{name}", &fact.name);
    out = out.replace("{value}", &format!("{:.1}", fact.value));
    for (k, v) in &fact.attrs {
        out = out.replace(&format!("{{{k}}}"), v);
    }
    out
}

/// Renders a template in one pass into one pre-sized buffer, when that
/// equals [`expand`]: every brace in the template opens or closes a
/// `{…}` placeholder, and no brace occurs in the fact's name or
/// attributes (`plain`), so no substituted text can form or complete a
/// placeholder. Otherwise falls back to [`expand`].
fn render(template: &str, fact: &Fact, plain: bool) -> String {
    if !plain {
        return expand(template, fact);
    }
    let attrs: usize = fact.attrs.values().map(String::len).sum();
    let mut out = String::with_capacity(template.len() + fact.name.len() + attrs + 24);
    let mut at = 0;
    // Braces must alternate `{`, `}`: each pair is one placeholder.
    let mut braces = template.match_indices(['{', '}']);
    while let Some((open, brace)) = braces.next() {
        let (Some((close, "}")), "{") = (braces.next(), brace) else {
            return expand(template, fact);
        };
        // Braces are ASCII, so every range below is on a char boundary.
        out.push_str(template.get(at..open).unwrap_or_default());
        match template.get(open + 1..close).unwrap_or_default() {
            "name" => out.push_str(&fact.name),
            "value" => {
                // Writing to a `String` cannot fail.
                let _ = write!(out, "{:.1}", fact.value);
            }
            key => match fact.attrs.get(key) {
                Some(v) => out.push_str(v),
                None => out.push_str(template.get(open..close + 1).unwrap_or_default()),
            },
        }
        at = close + 1;
    }
    out.push_str(template.get(at..).unwrap_or_default());
    out
}

fn has_brace(s: &str) -> bool {
    s.contains(['{', '}'])
}

/// The rule engine; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct InterpretationEngine {
    rules: Vec<Rule>,
    fired: u64,
    evaluated: u64,
}

impl InterpretationEngine {
    /// Creates an engine with no rules.
    pub fn new() -> Self {
        InterpretationEngine::default()
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Facts evaluated and rules fired so far (for the E1 influence
    /// accounting).
    pub fn counters(&self) -> (u64, u64) {
        (self.evaluated, self.fired)
    }

    /// Interprets one fact under a context, emitting directives for
    /// every matching rule, in rule-installation order.
    pub fn interpret(&mut self, fact: &Fact, ctx: &UserContext) -> Vec<Directive> {
        self.evaluated += 1;
        let plain = !has_brace(&fact.name)
            && fact
                .attrs
                .iter()
                .all(|(k, v)| !has_brace(k) && !has_brace(v));
        let mut out = Vec::new();
        for rule in &self.rules {
            if rule.conditions.iter().all(|c| c.holds(fact, ctx)) {
                self.fired += 1;
                let render_text = |t: &str| render(t, fact, plain);
                out.push(match &rule.action {
                    ActionTemplate::ShowLabel { text, priority } => Directive::ShowLabel {
                        subject: fact.subject,
                        text: render_text(text),
                        priority: *priority,
                    },
                    ActionTemplate::Highlight { color } => Directive::Highlight {
                        subject: fact.subject,
                        color: *color,
                    },
                    ActionTemplate::Alert {
                        text,
                        severity_per_unit,
                    } => Directive::Alert {
                        subject: fact.subject,
                        text: render_text(text),
                        severity: (fact.value.abs() * severity_per_unit).min(1.0),
                    },
                    ActionTemplate::SuggestRoute { reason } => Directive::SuggestRoute {
                        subject: fact.subject,
                        reason: render_text(reason),
                    },
                });
            }
        }
        out
    }

    /// Interprets a batch of facts.
    pub fn interpret_all(&mut self, facts: &[Fact], ctx: &UserContext) -> Vec<Directive> {
        facts.iter().flat_map(|f| self.interpret(f, ctx)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> InterpretationEngine {
        let mut e = InterpretationEngine::new();
        e.add_rule(
            Rule::new(
                "tachycardia-alert",
                vec![
                    Condition::FactIs("heart_rate".into()),
                    Condition::ValueAtLeast(115.0),
                    Condition::HealthMonitoringOn,
                ],
                ActionTemplate::Alert {
                    text: "Heart rate {value} bpm".into(),
                    severity_per_unit: 1.0 / 200.0,
                },
            )
            .unwrap(),
        );
        e.add_rule(
            Rule::new(
                "shopping-recommendation",
                vec![
                    Condition::FactIs("recommendation".into()),
                    Condition::ActivityIs("shopping".into()),
                    Condition::AttrInInterests("category".into()),
                    Condition::ValueAtLeast(0.5),
                ],
                ActionTemplate::ShowLabel {
                    text: "Recommended: {category} (score {value})".into(),
                    priority: 0.8,
                },
            )
            .unwrap(),
        );
        e.add_rule(
            Rule::new(
                "low-stock-highlight",
                vec![
                    Condition::FactIs("stock".into()),
                    Condition::ValueAtMost(3.0),
                ],
                ActionTemplate::Highlight { color: 0xFF3300 },
            )
            .unwrap(),
        );
        e
    }

    #[test]
    fn alert_fires_only_with_monitoring_enabled() {
        let mut e = engine();
        let fact = Fact::new("heart_rate", FeatureId(1), 130.0);
        let off = UserContext::default();
        assert!(e.interpret(&fact, &off).is_empty());
        let on = UserContext {
            health_monitoring: true,
            ..Default::default()
        };
        let directives = e.interpret(&fact, &on);
        assert_eq!(directives.len(), 1);
        match &directives[0] {
            Directive::Alert { text, severity, .. } => {
                assert!(text.contains("130.0"));
                assert!((severity - 0.65).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recommendation_respects_interest_and_activity() {
        let mut e = engine();
        let fact = Fact::new("recommendation", FeatureId(9), 0.8).with_attr("category", "food");
        let ctx = UserContext {
            activity: "shopping".into(),
            interests: vec!["food".into()],
            health_monitoring: false,
        };
        let d = e.interpret(&fact, &ctx);
        assert_eq!(d.len(), 1);
        match &d[0] {
            Directive::ShowLabel { text, .. } => assert!(text.contains("food")),
            other => panic!("unexpected {other:?}"),
        }
        // Wrong activity: nothing.
        let walking = UserContext {
            activity: "walking".into(),
            interests: vec!["food".into()],
            health_monitoring: false,
        };
        assert!(e.interpret(&fact, &walking).is_empty());
        // Not interested: nothing.
        let bored = UserContext {
            activity: "shopping".into(),
            interests: vec!["electronics".into()],
            health_monitoring: false,
        };
        assert!(e.interpret(&fact, &bored).is_empty());
    }

    #[test]
    fn value_at_most_and_highlight() {
        let mut e = engine();
        let d = e.interpret(
            &Fact::new("stock", FeatureId(4), 2.0),
            &UserContext::default(),
        );
        assert_eq!(
            d,
            vec![Directive::Highlight {
                subject: FeatureId(4),
                color: 0xFF3300
            }]
        );
        assert!(e
            .interpret(
                &Fact::new("stock", FeatureId(4), 10.0),
                &UserContext::default()
            )
            .is_empty());
    }

    #[test]
    fn severity_clamps_to_one() {
        let mut e = InterpretationEngine::new();
        e.add_rule(
            Rule::new(
                "r",
                vec![Condition::FactIs("x".into())],
                ActionTemplate::Alert {
                    text: "!".into(),
                    severity_per_unit: 1.0,
                },
            )
            .unwrap(),
        );
        let d = e.interpret(&Fact::new("x", FeatureId(0), 99.0), &UserContext::default());
        match &d[0] {
            Directive::Alert { severity, .. } => assert_eq!(*severity, 1.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_conditions_rejected() {
        assert!(matches!(
            Rule::new("bad", vec![], ActionTemplate::Highlight { color: 0 }),
            Err(SemanticError::InvalidRule(_))
        ));
    }

    #[test]
    fn counters_track_activity() {
        let mut e = engine();
        let ctx = UserContext::default();
        e.interpret_all(
            &[
                Fact::new("stock", FeatureId(1), 1.0),
                Fact::new("stock", FeatureId(2), 9.0),
            ],
            &ctx,
        );
        let (evaluated, fired) = e.counters();
        assert_eq!(evaluated, 2);
        assert_eq!(fired, 1);
        assert_eq!(e.rule_count(), 3);
    }

    /// `interpret` before single-pass rendering, kept as an oracle: every
    /// rule in installation order, every text by sequential replacement.
    fn interpret_sequential(rules: &[Rule], fact: &Fact, ctx: &UserContext) -> Vec<Directive> {
        let mut out = Vec::new();
        for rule in rules {
            if rule.conditions.iter().all(|c| c.holds(fact, ctx)) {
                out.push(match &rule.action {
                    ActionTemplate::ShowLabel { text, priority } => Directive::ShowLabel {
                        subject: fact.subject,
                        text: expand(text, fact),
                        priority: *priority,
                    },
                    ActionTemplate::Highlight { color } => Directive::Highlight {
                        subject: fact.subject,
                        color: *color,
                    },
                    ActionTemplate::Alert {
                        text,
                        severity_per_unit,
                    } => Directive::Alert {
                        subject: fact.subject,
                        text: expand(text, fact),
                        severity: (fact.value.abs() * severity_per_unit).min(1.0),
                    },
                    ActionTemplate::SuggestRoute { reason } => Directive::SuggestRoute {
                        subject: fact.subject,
                        reason: expand(reason, fact),
                    },
                });
            }
        }
        out
    }

    /// Names, keys and values that collide with placeholders: braces,
    /// `name`/`value` as attribute keys, the empty key, unknown keys.
    const NAMES: [&str; 6] = ["poi", "stock", "{value}", "a{", "x}", "poi{name}"];
    const KEYS: [&str; 8] = [
        "category",
        "name",
        "value",
        "a",
        "b",
        "a}{b",
        "",
        "{category}",
    ];
    const VALUES: [&str; 7] = ["food", "landmark", "{name}", "{value}", "}{", "{b}", ""];
    const TEMPLATES: [&str; 18] = [
        "{name} {category}",
        "popular {category} ({value})",
        "{name}{value}{a}{b}",
        "{unknown} and {}",
        "{{name}}",
        "{na{name}me}",
        "{a}{b}",
        "{a}b}",
        "{name",
        "{a{",
        "}b}",
        "value}",
        "}{",
        "plain",
        "",
        "{category}{category}",
        "{name}{name}",
        "landmark nearby: {category}",
    ];

    fn arb_engine_and_facts(seed: u64) -> (Vec<Rule>, Vec<(Fact, UserContext)>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pick = |rng: &mut rand::rngs::StdRng, pool: &[&str]| {
            pool[rng.gen_range(0..pool.len())].to_string()
        };
        let rules = (0..rng.gen_range(0..12))
            .map(|r| {
                let conditions = (0..rng.gen_range(1..4))
                    .map(|_| match rng.gen_range(0..7) {
                        0 | 1 => Condition::FactIs(pick(&mut rng, &NAMES)),
                        2 => Condition::ValueAtLeast(rng.gen_range(-1.0..2.0)),
                        3 => Condition::ValueAtMost(rng.gen_range(-1.0..2.0)),
                        4 => Condition::AttrIs(pick(&mut rng, &KEYS), pick(&mut rng, &VALUES)),
                        5 => Condition::AttrInInterests(pick(&mut rng, &KEYS)),
                        _ => Condition::ActivityIs("touring".into()),
                    })
                    .collect();
                let text = pick(&mut rng, &TEMPLATES);
                let action = match rng.gen_range(0..4) {
                    0 => ActionTemplate::ShowLabel {
                        text,
                        priority: 0.5,
                    },
                    1 => ActionTemplate::Highlight { color: r },
                    2 => ActionTemplate::Alert {
                        text,
                        severity_per_unit: 0.3,
                    },
                    _ => ActionTemplate::SuggestRoute { reason: text },
                };
                Rule::new("r", conditions, action).unwrap()
            })
            .collect();
        let values = [
            0.0,
            -0.0,
            0.05,
            123.456,
            -7.25,
            f64::NAN,
            f64::INFINITY,
            1e300,
        ];
        let facts = (0..64)
            .map(|i| {
                let mut fact = Fact::new(
                    &pick(&mut rng, &NAMES),
                    FeatureId(i),
                    values[rng.gen_range(0..values.len())],
                );
                for _ in 0..rng.gen_range(0..4) {
                    fact = fact.with_attr(&pick(&mut rng, &KEYS), &pick(&mut rng, &VALUES));
                }
                let ctx = UserContext {
                    activity: if rng.gen_bool(0.5) {
                        "touring"
                    } else {
                        "shopping"
                    }
                    .into(),
                    interests: vec![pick(&mut rng, &VALUES)],
                    health_monitoring: rng.gen_bool(0.5),
                };
                (fact, ctx)
            })
            .collect();
        (rules, facts)
    }

    proptest::proptest! {
        #[test]
        fn interpret_matches_sequential_oracle(seed in proptest::prelude::any::<u64>()) {
            let (rules, facts) = arb_engine_and_facts(seed);
            // Half the rules are added after some facts were interpreted.
            let (first, _) = rules.split_at(rules.len() / 2);
            let mut e = InterpretationEngine::new();
            for rule in first.iter().cloned() {
                e.add_rule(rule);
            }
            let mut fired = 0;
            for (n, (fact, ctx)) in facts.iter().enumerate() {
                if n == facts.len() / 2 {
                    for rule in rules[first.len()..].iter().cloned() {
                        e.add_rule(rule);
                    }
                }
                let installed = if n < facts.len() / 2 { first } else { &rules[..] };
                let want = interpret_sequential(installed, fact, ctx);
                fired += want.len() as u64;
                // Debug strings compare NaN values as equal.
                proptest::prop_assert_eq!(
                    format!("{:?}", e.interpret(fact, ctx)),
                    format!("{want:?}")
                );
            }
            proptest::prop_assert_eq!(e.counters(), (facts.len() as u64, fired));
        }
    }

    #[test]
    fn stray_braces_take_the_sequential_path() {
        let fact = Fact::new("poi", FeatureId(0), 1.0)
            .with_attr("poi", "X")
            .with_attr("a", "1");
        // Sequential replacement turns `{{name}}` into `{poi}`, then `X`.
        assert_eq!(render("{{name}}", &fact, true), "X");
        for t in ["{a}b}", "{name", "}", "}b}", "{a{b}", "{a{", "{}{a}"] {
            assert_eq!(render(t, &fact, true), expand(t, &fact), "{t}");
        }
    }

    #[test]
    fn subject_accessor() {
        let d = Directive::SuggestRoute {
            subject: FeatureId(5),
            reason: "r".into(),
        };
        assert_eq!(d.subject(), FeatureId(5));
    }
}
