//! The virtual filesystem tree.

use std::collections::BTreeMap;

/// A filesystem node: a file with contents or a directory of children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A regular file.
    File(String),
    /// A directory mapping names to child nodes.
    Dir(BTreeMap<String, Node>),
}

impl Node {
    /// An empty directory.
    pub fn empty_dir() -> Node {
        Node::Dir(BTreeMap::new())
    }

    /// The node `segs` below this one (this node for no segments).
    pub fn descendant(&self, segs: &[String]) -> Option<&Node> {
        let mut cur = self;
        for seg in segs {
            match cur {
                Node::Dir(children) => cur = children.get(seg)?,
                Node::File(_) => return None,
            }
        }
        Some(cur)
    }

    /// The file contents, if this is a file.
    pub fn as_file(&self) -> Option<&str> {
        match self {
            Node::File(data) => Some(data),
            Node::Dir(_) => None,
        }
    }
}

/// Normalizes a path into its segments: leading/trailing/duplicate slashes
/// are ignored, `.` segments are dropped, and `..` pops (never above root).
pub fn normalize_path(path: &str) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                segs.pop();
            }
            s => segs.push(s.to_string()),
        }
    }
    segs
}

/// The filesystem: a root directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fs {
    root: Node,
}

impl Default for Fs {
    fn default() -> Self {
        Fs::new()
    }
}

impl Fs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Fs {
            root: Node::empty_dir(),
        }
    }

    /// Looks up the node at `path`.
    pub fn get(&self, path: &str) -> Option<&Node> {
        self.root.descendant(&normalize_path(path))
    }

    /// The shallowest prefix of `path` with no node, which inserting at
    /// `path` would create (`None` if `path` exists or lies under a file).
    pub fn first_missing(&self, path: &str) -> Option<String> {
        let mut cur = &self.root;
        let mut prefix = String::new();
        for seg in normalize_path(path) {
            prefix.push('/');
            prefix.push_str(&seg);
            let Node::Dir(children) = cur else {
                return None;
            };
            match children.get(&seg) {
                Some(child) => cur = child,
                None => return Some(prefix),
            }
        }
        None
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut Node> {
        let segs = normalize_path(path);
        let mut cur = &mut self.root;
        for seg in &segs {
            match cur {
                Node::Dir(children) => cur = children.get_mut(seg)?,
                Node::File(_) => return None,
            }
        }
        Some(cur)
    }

    /// Inserts (or replaces) `node` at `path`, creating parent directories.
    /// Fails (returns `false`) if a parent path component is a file, or the
    /// path is the root.
    pub fn insert(&mut self, path: &str, node: Node) -> bool {
        let segs = normalize_path(path);
        let Some((last, parents)) = segs.split_last() else {
            return false;
        };
        let mut cur = &mut self.root;
        for seg in parents {
            let Node::Dir(children) = cur else {
                return false;
            };
            cur = children.entry(seg.clone()).or_insert_with(Node::empty_dir);
        }
        match cur {
            Node::Dir(children) => {
                children.insert(last.clone(), node);
                true
            }
            Node::File(_) => false,
        }
    }

    /// Removes and returns the node at `path` (file or whole directory).
    pub fn remove(&mut self, path: &str) -> Option<Node> {
        let segs = normalize_path(path);
        let (last, parents) = segs.split_last()?;
        let mut cur = &mut self.root;
        for seg in parents {
            match cur {
                Node::Dir(children) => cur = children.get_mut(seg)?,
                Node::File(_) => return None,
            }
        }
        match cur {
            Node::Dir(children) => children.remove(last),
            Node::File(_) => None,
        }
    }

    /// Creates an empty directory at `path` if nothing exists there.
    /// Returns `false` if the path exists already or a parent is a file.
    pub fn mkdir(&mut self, path: &str) -> bool {
        if self.get(path).is_some() {
            return false;
        }
        self.insert(path, Node::empty_dir())
    }

    /// Lists the entry names of the directory at `path`.
    pub fn readdir(&self, path: &str) -> Option<Vec<String>> {
        match self.get(path) {
            Some(Node::Dir(children)) => Some(children.keys().cloned().collect()),
            _ => None,
        }
    }

    /// Renames `from` to `to`. Returns `false` if `from` does not exist or
    /// `to`'s parent is invalid.
    pub fn rename(&mut self, from: &str, to: &str) -> bool {
        let Some(node) = self.remove(from) else {
            return false;
        };
        if self.insert(to, node.clone()) {
            true
        } else {
            // Roll back on failure.
            self.insert(from, node);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_handles_dots_and_slashes() {
        assert_eq!(normalize_path("/a//b/./c/"), vec!["a", "b", "c"]);
        assert_eq!(normalize_path("a/../b"), vec!["b"]);
        assert_eq!(normalize_path("../a"), vec!["a"]);
        assert!(normalize_path("/").is_empty());
    }

    #[test]
    fn insert_and_get_file() {
        let mut fs = Fs::new();
        assert!(fs.insert("/etc/conf", Node::File("x=1".into())));
        assert_eq!(fs.get("/etc/conf").unwrap().as_file(), Some("x=1"));
        assert_eq!(fs.get("etc/conf").unwrap().as_file(), Some("x=1"));
        assert!(fs.get("/etc/missing").is_none());
    }

    #[test]
    fn insert_creates_parents() {
        let mut fs = Fs::new();
        assert!(fs.insert("/a/b/c/file", Node::File("".into())));
        assert!(matches!(fs.get("/a/b"), Some(Node::Dir(_))));
    }

    #[test]
    fn cannot_insert_under_file() {
        let mut fs = Fs::new();
        fs.insert("/f", Node::File("data".into()));
        assert!(!fs.insert("/f/child", Node::File("".into())));
        assert!(!fs.insert("/", Node::File("".into())));
    }

    #[test]
    fn mkdir_and_readdir() {
        let mut fs = Fs::new();
        assert!(fs.mkdir("/logs"));
        assert!(!fs.mkdir("/logs"), "mkdir on existing path fails");
        fs.insert("/logs/a.txt", Node::File("1".into()));
        fs.insert("/logs/b.txt", Node::File("2".into()));
        assert_eq!(fs.readdir("/logs").unwrap(), vec!["a.txt", "b.txt"]);
        assert!(fs.readdir("/logs/a.txt").is_none());
        assert!(fs.readdir("/missing").is_none());
    }

    #[test]
    fn remove_file_and_dir() {
        let mut fs = Fs::new();
        fs.insert("/d/f", Node::File("x".into()));
        assert!(fs.remove("/d/f").is_some());
        assert!(fs.get("/d/f").is_none());
        assert!(fs.get("/d").is_some());
        assert!(fs.remove("/d").is_some());
        assert!(fs.remove("/d").is_none());
    }

    #[test]
    fn rename_moves_node() {
        let mut fs = Fs::new();
        fs.insert("/a", Node::File("data".into()));
        assert!(fs.rename("/a", "/b/c"));
        assert!(fs.get("/a").is_none());
        assert_eq!(fs.get("/b/c").unwrap().as_file(), Some("data"));
        assert!(!fs.rename("/missing", "/x"));
    }

    #[test]
    fn rename_rolls_back_on_bad_target() {
        let mut fs = Fs::new();
        fs.insert("/src", Node::File("keep".into()));
        fs.insert("/blocker", Node::File("".into()));
        assert!(!fs.rename("/src", "/blocker/child"));
        assert_eq!(fs.get("/src").unwrap().as_file(), Some("keep"));
    }

    #[test]
    fn root_is_a_directory() {
        let fs = Fs::new();
        assert!(matches!(fs.get("/"), Some(Node::Dir(_))));
        assert!(fs.readdir("").unwrap().is_empty());
    }
}
