//! The typed-but-dynamic parameter layer: string keys and values parsed on
//! demand into each algorithm's strongly-typed configuration.

use std::collections::BTreeMap;

use crate::ClusterError;

/// An ordered bag of `key=value` parameters for one algorithm invocation.
///
/// Values are stored as strings (they usually arrive from a command line or
/// an experiment spec) and parsed into concrete types by the algorithm's
/// config builder via [`get_parsed`](Params::get_parsed) /
/// [`get_or`](Params::get_or), which produce a typed
/// [`ClusterError::InvalidParam`] on bad input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Params {
    values: BTreeMap<String, String>,
}

impl Params {
    /// An empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set one parameter, replacing any previous value for the key.
    pub fn set(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.values.insert(key.into(), value.to_string());
        self
    }

    /// Parse a `key=value` pair (as given to `--param`) and set it.
    pub fn set_pair(&mut self, pair: &str) -> Result<&mut Self, ClusterError> {
        match pair.split_once('=') {
            Some((key, value)) if !key.trim().is_empty() => Ok(self.set(key.trim(), value.trim())),
            _ => Err(ClusterError::InvalidParam {
                param: pair.to_string(),
                value: String::new(),
                expected: "a key=value pair".to_string(),
            }),
        }
    }

    /// Raw value of a parameter, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Parse a parameter into `T`, `None` when absent.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ClusterError> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| ClusterError::InvalidParam {
                    param: key.to_string(),
                    value: raw.to_string(),
                    expected: std::any::type_name::<T>().to_string(),
                }),
        }
    }

    /// Parse a parameter into `T`, with a default when absent.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ClusterError> {
        Ok(self.get_parsed(key)?.unwrap_or(default))
    }

    /// Copy every parameter of `other` into this set, overwriting keys
    /// that collide.
    pub fn merge(&mut self, other: &Params) {
        for (key, value) in &other.values {
            self.values.insert(key.clone(), value.clone());
        }
    }

    /// The keys present in this parameter set.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Remove every key not in `accepted` (used by lenient resolution when
    /// a caller forwards a shared flag set to many algorithms).
    pub fn retain_keys(&mut self, accepted: &[&str]) {
        self.values.retain(|k, _| accepted.contains(&k.as_str()));
    }
}

impl std::fmt::Display for Params {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (k, v) in &self.values {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

/// A fully-specified algorithm invocation: a registry key plus parameters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlgorithmSpec {
    /// The registry key (e.g. `"kmeans"`).
    pub name: String,
    /// The parameters to build the algorithm with.
    pub params: Params,
}

impl AlgorithmSpec {
    /// A spec with no parameters (algorithm defaults).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: Params::new(),
        }
    }

    /// Builder-style parameter setter.
    ///
    /// ```
    /// use adawave_api::AlgorithmSpec;
    /// let spec = AlgorithmSpec::new("kmeans").with("k", 3).with("seed", 7);
    /// assert_eq!(spec.params.get("k"), Some("3"));
    /// ```
    pub fn with(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.set(key, value);
        self
    }

    /// Parse a compact spec string: a name optionally followed by
    /// `:key=value,key=value` (e.g. `"dbscan:eps=0.05,min-points=8"`).
    pub fn parse(text: &str) -> Result<Self, ClusterError> {
        let (name, rest) = match text.split_once(':') {
            Some((name, rest)) => (name, Some(rest)),
            None => (text, None),
        };
        let name = name.trim();
        if name.is_empty() {
            return Err(ClusterError::InvalidParam {
                param: text.to_string(),
                value: String::new(),
                expected: "an algorithm name, optionally followed by :key=value,...".to_string(),
            });
        }
        let mut spec = AlgorithmSpec::new(name);
        if let Some(rest) = rest {
            for pair in rest.split(',').filter(|p| !p.trim().is_empty()) {
                spec.params.set_pair(pair.trim())?;
            }
        }
        Ok(spec)
    }
}

impl std::fmt::Display for AlgorithmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.params.is_empty() {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{} ({})", self.name, self.params)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_getters_parse_and_default() {
        let mut p = Params::new();
        p.set("k", 5).set("eps", 0.25).set("name", "spiral");
        assert_eq!(p.get_or("k", 2usize).unwrap(), 5);
        assert_eq!(p.get_or("eps", 0.0f64).unwrap(), 0.25);
        assert_eq!(p.get_or("missing", 42u32).unwrap(), 42);
        assert_eq!(p.get_parsed::<u64>("missing").unwrap(), None);
        assert_eq!(p.get("name"), Some("spiral"));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn bad_values_produce_typed_errors() {
        let mut p = Params::new();
        p.set("k", "banana");
        let err = p.get_or("k", 2usize).unwrap_err();
        assert!(matches!(err, ClusterError::InvalidParam { ref param, .. } if param == "k"));
        assert!(err.to_string().contains("banana"));
    }

    #[test]
    fn set_pair_parses_and_rejects() {
        let mut p = Params::new();
        p.set_pair("k=3").unwrap();
        p.set_pair(" eps = 0.1 ").unwrap();
        assert_eq!(p.get("k"), Some("3"));
        assert_eq!(p.get("eps"), Some("0.1"));
        assert!(p.set_pair("no-equals").is_err());
        assert!(p.set_pair("=3").is_err());
    }

    #[test]
    fn spec_parse_round_trip() {
        let spec = AlgorithmSpec::parse("dbscan:eps=0.05,min-points=8").unwrap();
        assert_eq!(spec.name, "dbscan");
        assert_eq!(spec.params.get("eps"), Some("0.05"));
        assert_eq!(spec.params.get("min-points"), Some("8"));

        let bare = AlgorithmSpec::parse("adawave").unwrap();
        assert_eq!(bare.name, "adawave");
        assert!(bare.params.is_empty());

        assert!(AlgorithmSpec::parse(":k=3").is_err());
        assert!(AlgorithmSpec::parse("kmeans:k").is_err());
    }

    #[test]
    fn retain_keys_drops_foreign_params() {
        let mut p = Params::new();
        p.set("k", 3).set("scale", 64).set("eps", 0.1);
        p.retain_keys(&["k", "seed"]);
        assert_eq!(p.get("k"), Some("3"));
        assert_eq!(p.get("scale"), None);
        assert_eq!(p.get("eps"), None);
    }

    #[test]
    fn display_is_compact() {
        let spec = AlgorithmSpec::new("kmeans").with("k", 3);
        assert_eq!(spec.to_string(), "kmeans (k=3)");
        assert_eq!(AlgorithmSpec::new("adawave").to_string(), "adawave");
    }
}
