//! Loosely-typed parameter bags, the bridge between the DSL's
//! `generator(name = value, ...)` syntax and concrete generator
//! constructors.

use std::collections::BTreeMap;
use std::fmt;

use crate::registry::BuildError;

/// A single parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Fractional numeric parameter.
    Num(f64),
    /// Integer parameter, carried exactly (no f64 round-trip).
    Int(i64),
    /// String parameter.
    Text(String),
}

/// Named parameters for a generator, as parsed from the DSL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    map: BTreeMap<String, ParamValue>,
}

impl Params {
    /// Empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a numeric parameter (builder style).
    pub fn with_num(mut self, key: &str, value: f64) -> Self {
        self.map.insert(key.to_owned(), ParamValue::Num(value));
        self
    }

    /// Insert an exact integer parameter (builder style).
    pub fn with_long(mut self, key: &str, value: i64) -> Self {
        self.map.insert(key.to_owned(), ParamValue::Int(value));
        self
    }

    /// Insert a string parameter (builder style).
    pub fn with_text(mut self, key: &str, value: &str) -> Self {
        self.map
            .insert(key.to_owned(), ParamValue::Text(value.to_owned()));
        self
    }

    /// Insert any value.
    pub fn insert(&mut self, key: impl Into<String>, value: ParamValue) {
        self.map.insert(key.into(), value);
    }

    /// Numeric lookup.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.map.get(key)? {
            ParamValue::Num(v) => Some(*v),
            ParamValue::Int(v) => Some(*v as f64),
            ParamValue::Text(_) => None,
        }
    }

    /// Numeric lookup with default.
    pub fn f64_or(&self, key: &str, default: f64) -> f64 {
        self.get_f64(key).unwrap_or(default)
    }

    /// Integer lookup (rejects non-integral numerics). Exact-integer
    /// parameters convert without an f64 round-trip.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.map.get(key)? {
            ParamValue::Int(v) => u64::try_from(*v).ok(),
            ParamValue::Num(v) => (*v >= 0.0 && v.fract() == 0.0).then_some(*v as u64),
            ParamValue::Text(_) => None,
        }
    }

    /// Integer lookup with default.
    pub fn u64_or(&self, key: &str, default: u64) -> u64 {
        self.get_u64(key).unwrap_or(default)
    }

    /// String lookup.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.map.get(key)? {
            ParamValue::Text(s) => Some(s),
            ParamValue::Num(_) | ParamValue::Int(_) => None,
        }
    }

    /// Whether a key is present.
    pub fn contains(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Typed extraction scoped to a generator name: lookups that fail
    /// produce uniform [`BuildError`]s instead of per-call-site
    /// boilerplate.
    pub fn reader(&self, generator: &'static str) -> ParamReader<'_> {
        ParamReader {
            generator,
            params: self,
        }
    }
}

/// A [`Params`] view bound to the generator being constructed; every
/// failing lookup knows which generator to blame. Obtain via
/// [`Params::reader`].
#[derive(Debug, Clone, Copy)]
pub struct ParamReader<'a> {
    generator: &'static str,
    params: &'a Params,
}

/// Plain lookups (`get_f64`, `u64_or`, `get_str`, …) are the bag's own.
impl std::ops::Deref for ParamReader<'_> {
    type Target = Params;

    fn deref(&self) -> &Params {
        self.params
    }
}

impl<'a> ParamReader<'a> {
    /// String lookup with default.
    pub fn str_or(&self, key: &str, default: &'a str) -> &'a str {
        self.params.get_str(key).unwrap_or(default)
    }

    /// Numeric lookup that must be present.
    pub fn require_f64(&self, key: &'static str) -> Result<f64, BuildError> {
        self.params.get_f64(key).ok_or(BuildError::MissingParam {
            generator: self.generator,
            param: key,
        })
    }

    /// Integer lookup that must be present.
    pub fn require_u64(&self, key: &'static str) -> Result<u64, BuildError> {
        self.params.get_u64(key).ok_or(BuildError::MissingParam {
            generator: self.generator,
            param: key,
        })
    }

    /// Numeric lookup with default, rejected outside `[lo, hi]`.
    pub fn f64_in(
        &self,
        key: &'static str,
        default: f64,
        lo: f64,
        hi: f64,
    ) -> Result<f64, BuildError> {
        self.in_range(key, self.f64_or(key, default), lo, hi)
    }

    /// Required numeric lookup, rejected outside `[lo, hi]`.
    pub fn require_f64_in(&self, key: &'static str, lo: f64, hi: f64) -> Result<f64, BuildError> {
        self.in_range(key, self.require_f64(key)?, lo, hi)
    }

    fn in_range(&self, key: &'static str, v: f64, lo: f64, hi: f64) -> Result<f64, BuildError> {
        if (lo..=hi).contains(&v) {
            Ok(v)
        } else {
            Err(self.bad(key, format!("must be in [{lo}, {hi}]")))
        }
    }

    /// A [`BuildError::InvalidParam`] for `key`, for custom checks.
    pub fn bad(&self, key: &'static str, reason: impl Into<String>) -> BuildError {
        BuildError::InvalidParam {
            generator: self.generator,
            param: key,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in &self.map {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            match v {
                ParamValue::Num(n) => write!(f, "{k} = {n}")?,
                ParamValue::Int(n) => write!(f, "{k} = {n}")?,
                ParamValue::Text(s) => write!(f, "{k} = \"{s}\"")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_lookups() {
        let p = Params::new()
            .with_num("scale", 18.0)
            .with_num("mixing", 0.1)
            .with_text("mode", "simple");
        assert_eq!(p.get_u64("scale"), Some(18));
        assert_eq!(p.get_f64("mixing"), Some(0.1));
        assert_eq!(p.get_u64("mixing"), None, "fractional is not u64");
        assert_eq!(p.get_str("mode"), Some("simple"));
        assert_eq!(p.get_f64("mode"), None);
        assert_eq!(p.u64_or("missing", 7), 7);
        assert!(p.contains("scale"));
    }

    #[test]
    fn exact_integer_params_skip_the_f64_funnel() {
        let p = Params::new().with_long("n", 9_007_199_254_740_993);
        assert_eq!(p.get_u64("n"), Some(9_007_199_254_740_993));
        assert_eq!(Params::new().with_long("n", -3).get_u64("n"), None);
        assert_eq!(Params::new().with_long("n", 20).get_f64("n"), Some(20.0));
    }

    #[test]
    fn reader_produces_uniform_errors() {
        let p = Params::new().with_num("p", 1.5);
        let r = p.reader("test_gen");
        assert_eq!(r.f64_or("p", 0.0), 1.5);
        assert!(matches!(
            r.require_f64("missing"),
            Err(BuildError::MissingParam {
                generator: "test_gen",
                param: "missing"
            })
        ));
        let err = r.require_f64_in("p", 0.0, 1.0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "test_gen: invalid parameter p: must be in [0, 1]"
        );
        assert!(r.f64_in("q", 0.5, 0.0, 1.0).is_ok(), "default in range");
        assert_eq!(r.str_or("mode", "simple"), "simple");
    }

    #[test]
    fn display_is_stable() {
        let p = Params::new().with_num("b", 2.0).with_text("a", "x");
        assert_eq!(p.to_string(), "a = \"x\", b = 2");
    }
}
