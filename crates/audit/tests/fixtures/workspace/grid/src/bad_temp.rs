// Test code is audited for temp paths: a fixed name races between the
// parallel test threads of one process.
#[cfg(test)]
mod tests {
    fn scratch() -> std::path::PathBuf {
        std::env::temp_dir().join("fixed_name.csv")
    }
}
