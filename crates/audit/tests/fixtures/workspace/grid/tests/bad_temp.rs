//! Integration tests get the test-isolation lints only: this unwrap and
//! partial_cmp are not findings, the temp path is.
#[test]
fn writes_a_fixed_temp_file() {
    let path = std::env::temp_dir().join("fixed_name.csv");
    std::fs::write(path, "x").unwrap();
    let _ = 1.0f64.partial_cmp(&2.0).unwrap();
}
