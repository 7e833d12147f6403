//! The open structure-generator registry: names map to boxed constructor
//! closures, so user-defined generators plug into the pipeline (DSL and
//! builder alike) without touching this crate.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use datasynth_tables::suggest::closest_match;

use crate::params::Params;
use crate::StructureGenerator;

/// Errors from building a structure generator by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No generator registered under this name.
    UnknownGenerator {
        /// The name that failed to resolve.
        name: String,
        /// Every name registered at lookup time (sorted).
        known: Vec<String>,
        /// Closest registered name by edit distance, if any is close.
        suggestion: Option<String>,
    },
    /// A required parameter is absent.
    MissingParam {
        /// Generator name.
        generator: &'static str,
        /// Parameter name.
        param: &'static str,
    },
    /// A parameter value is out of range or mistyped.
    InvalidParam {
        /// Generator name.
        generator: &'static str,
        /// Parameter name.
        param: &'static str,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownGenerator {
                name,
                known,
                suggestion,
            } => {
                write!(f, "unknown structure generator {name}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                if !known.is_empty() {
                    write!(f, "; registered: {}", known.join(", "))?;
                }
                Ok(())
            }
            BuildError::MissingParam { generator, param } => {
                write!(f, "{generator}: missing parameter {param}")
            }
            BuildError::InvalidParam {
                generator,
                param,
                reason,
            } => write!(f, "{generator}: invalid parameter {param}: {reason}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A boxed structure generator, as the registry produces it.
pub type BoxedStructureGenerator = Box<dyn StructureGenerator + Send + Sync>;

type Ctor = Arc<dyn Fn(&Params) -> Result<BoxedStructureGenerator, BuildError> + Send + Sync>;

/// Name → constructor map for structure generators.
///
/// [`StructureRegistry::builtin`] holds the shipped generator library;
/// [`register`](StructureRegistry::register) adds (or overrides) entries,
/// making user-defined generators resolvable from the DSL's
/// `structure = name(...)` clause and from `SchemaBuilder` programs.
///
/// ```
/// use datasynth_prng::SplitMix64;
/// use datasynth_structure::{
///     Capabilities, Params, StructureGenerator, StructureRegistry,
/// };
/// use datasynth_tables::EdgeTable;
///
/// struct Star;
///
/// impl StructureGenerator for Star {
///     fn name(&self) -> &'static str {
///         "star"
///     }
///     fn run(&self, n: u64, _rng: &mut SplitMix64) -> EdgeTable {
///         let mut et = EdgeTable::with_capacity("star", n.saturating_sub(1) as usize);
///         for i in 1..n {
///             et.push(0, i);
///         }
///         et
///     }
///     fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
///         num_edges + 1
///     }
///     fn capabilities(&self) -> Capabilities {
///         Capabilities::default()
///     }
/// }
///
/// let mut registry = StructureRegistry::builtin();
/// registry.register("star", |_params: &Params| Ok(Box::new(Star) as _));
/// let generator = registry.build("star", &Params::new()).unwrap();
/// assert_eq!(generator.run(5, &mut SplitMix64::new(1)).len(), 4);
/// ```
#[derive(Clone, Default)]
pub struct StructureRegistry {
    ctors: BTreeMap<String, Ctor>,
    /// Alias → canonical name, resolved at [`build`](Self::build) time so
    /// overriding a canonical entry also takes effect for its aliases.
    aliases: BTreeMap<String, String>,
}

impl StructureRegistry {
    /// A registry with no entries (useful to expose a restricted menu).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The shipped generator library (RMAT, LFR, BTER, … and their DSL
    /// aliases).
    pub fn builtin() -> Self {
        let mut registry = Self::empty();
        crate::factory::register_builtins(&mut registry);
        registry
    }

    /// Register `ctor` under `name`, replacing any previous entry. A
    /// direct registration shadows any alias of the same name.
    pub fn register<F>(&mut self, name: impl Into<String>, ctor: F)
    where
        F: Fn(&Params) -> Result<BoxedStructureGenerator, BuildError> + Send + Sync + 'static,
    {
        self.ctors.insert(name.into(), Arc::new(ctor));
    }

    /// Register `alias` to resolve like `name`. The alias is late-bound:
    /// re-registering `name` later redirects the alias too. Returns
    /// `false` (and registers nothing) when `name` is unknown.
    pub fn alias(&mut self, alias: impl Into<String>, name: &str) -> bool {
        if !self.ctors.contains_key(name) {
            return false;
        }
        self.aliases.insert(alias.into(), name.to_owned());
        true
    }

    fn resolve(&self, name: &str) -> Option<&Ctor> {
        self.ctors.get(self.canonical(name)?)
    }

    /// Construct a generator from its registry name and parameters.
    pub fn build(
        &self,
        name: &str,
        params: &Params,
    ) -> Result<BoxedStructureGenerator, BuildError> {
        match self.resolve(name) {
            Some(ctor) => ctor(params),
            None => Err(self.unknown(name)),
        }
    }

    /// The registered name `name` builds as — itself, or its alias target —
    /// or `None` when it does not resolve.
    pub fn canonical<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        if self.ctors.contains_key(name) {
            return Some(name);
        }
        // `alias` only ever records targets that are registered.
        self.aliases.get(name).map(String::as_str)
    }

    /// Whether `name` resolves (directly or through an alias).
    pub fn contains(&self, name: &str) -> bool {
        self.resolve(name).is_some()
    }

    /// Every registered name (including aliases), sorted.
    pub fn names(&self) -> Vec<&str> {
        self.ctors
            .keys()
            .chain(self.aliases.keys())
            .map(String::as_str)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    /// The error reported for an unresolvable `name`: carries the full
    /// registered-name list and a closest-match suggestion.
    pub fn unknown(&self, name: &str) -> BuildError {
        let known = self.names();
        BuildError::UnknownGenerator {
            suggestion: closest_match(name, known.iter().copied()),
            known: known.into_iter().map(str::to_owned).collect(),
            name: name.to_owned(),
        }
    }
}

impl fmt::Debug for StructureRegistry {
    /// Debug as the name list (closures have no useful representation).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StructureRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gnm;
    use datasynth_prng::SplitMix64;

    #[test]
    fn registered_closure_resolves_and_builds() {
        let mut registry = StructureRegistry::empty();
        registry.register("pairs", |params: &Params| {
            Ok(Box::new(Gnm::new(params.u64_or("m", 10))) as BoxedStructureGenerator)
        });
        assert!(registry.contains("pairs"));
        let g = registry
            .build("pairs", &Params::new().with_num("m", 25.0))
            .unwrap();
        assert_eq!(g.run(100, &mut SplitMix64::new(3)).len(), 25);
    }

    #[test]
    fn register_overrides_builtins() {
        let mut registry = StructureRegistry::builtin();
        registry.register("rmat", |_params: &Params| {
            Ok(Box::new(Gnm::new(1)) as BoxedStructureGenerator)
        });
        let g = registry.build("rmat", &Params::new()).unwrap();
        assert_eq!(g.name(), "gnm", "user entry shadows the builtin");
    }

    #[test]
    fn unknown_name_reports_suggestion_and_names() {
        let registry = StructureRegistry::builtin();
        let err = match registry.build("er_dos_renyi", &Params::new()) {
            Err(e) => e,
            Ok(g) => panic!("unexpectedly built {}", g.name()),
        };
        let msg = err.to_string();
        assert!(msg.contains("er_dos_renyi"), "{msg}");
        assert!(msg.contains("did you mean \"erdos_renyi\"?"), "{msg}");
        assert!(msg.contains("registered:"), "{msg}");
        assert!(msg.contains("lfr"), "{msg}");
    }

    #[test]
    fn distant_names_get_no_suggestion() {
        let registry = StructureRegistry::builtin();
        match registry.unknown("zzzzzzzzzzzzzzz") {
            BuildError::UnknownGenerator { suggestion, .. } => assert_eq!(suggestion, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alias_tracks_target() {
        let mut registry = StructureRegistry::builtin();
        assert!(registry.alias("er", "erdos_renyi"));
        assert!(!registry.alias("nope_alias", "missing_target"));
        assert!(registry.contains("er"));
        assert!(!registry.contains("nope_alias"));
        assert!(registry.names().contains(&"er"));
    }

    #[test]
    fn overriding_a_canonical_name_redirects_its_aliases() {
        let mut registry = StructureRegistry::builtin();
        registry.register("erdos_renyi", |_params: &Params| {
            Ok(Box::new(Gnm::new(7)) as BoxedStructureGenerator)
        });
        // The DSL alias `gnp` must build the replacement, not the old
        // builtin it pointed at when the alias was created.
        let g = registry.build("gnp", &Params::new()).unwrap();
        assert_eq!(g.name(), "gnm", "alias resolves to the override");
        // A direct registration under the alias name shadows the alias.
        registry.register("gnp", |_params: &Params| {
            Ok(Box::new(Gnm::new(3)) as BoxedStructureGenerator)
        });
        let g = registry.build("gnp", &Params::new()).unwrap();
        assert_eq!(g.run(10, &mut SplitMix64::new(1)).len(), 3);
    }
}
