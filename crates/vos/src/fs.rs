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
    pub fn descendant<'s>(&self, segs: impl IntoIterator<Item = &'s str>) -> Option<&Node> {
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

/// The segments of a normalized path, borrowed from it: leading/trailing/
/// duplicate slashes are ignored, `.` segments are dropped, and `..` pops
/// (never above root). Every filesystem lookup walks these, so a lookup
/// allocates nothing. A segment survives unless the `..`s after it pop
/// it, so each one scans the rest of the path: a lookup costs the square
/// of the path's depth, a few segments for the paths Lx programs use.
pub fn normalize_path(path: &str) -> Segments<'_> {
    Segments { rest: path }
}

/// The iterator [`normalize_path`] returns.
#[derive(Debug, Clone)]
pub struct Segments<'a> {
    /// The part of the path not yet split.
    rest: &'a str,
}

impl<'a> Segments<'a> {
    /// The segments joined by `/`, with no leading slash: one key for
    /// every spelling of a path.
    pub fn joined(self) -> String {
        let mut key = String::new();
        for seg in self {
            if !key.is_empty() {
                key.push('/');
            }
            key.push_str(seg);
        }
        key
    }
}

impl<'a> Iterator for Segments<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        while !self.rest.is_empty() {
            let (seg, rest) = self.rest.split_once('/').unwrap_or((self.rest, ""));
            self.rest = rest;
            if !matches!(seg, "" | "." | "..") && !popped_by(rest) {
                return Some(seg);
            }
        }
        None
    }
}

/// Whether the `..` segments of `rest` pop the segment just before it:
/// they do once they outnumber the segments pushed after it.
fn popped_by(rest: &str) -> bool {
    let mut depth = 0usize;
    for seg in rest.split('/') {
        match seg {
            "" | "." => {}
            ".." => match depth.checked_sub(1) {
                Some(d) => depth = d,
                None => return true,
            },
            _ => depth += 1,
        }
    }
    false
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
        self.root.descendant(normalize_path(path))
    }

    /// The shallowest prefix of `path` with no node, which inserting at
    /// `path` would create (`None` if `path` exists or lies under a file).
    pub fn first_missing(&self, path: &str) -> Option<String> {
        let mut cur = &self.root;
        let mut prefix = String::new();
        for seg in normalize_path(path) {
            prefix.push('/');
            prefix.push_str(seg);
            let Node::Dir(children) = cur else {
                return None;
            };
            match children.get(seg) {
                Some(child) => cur = child,
                None => return Some(prefix),
            }
        }
        None
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut Node> {
        let mut cur = &mut self.root;
        for seg in normalize_path(path) {
            match cur {
                Node::Dir(children) => cur = children.get_mut(seg)?,
                Node::File(_) => return None,
            }
        }
        Some(cur)
    }

    /// The directory that holds the node at `path`, creating missing
    /// parents if `create`, and the node's name in it (`None` for the
    /// root, a parent that is a file, or a missing parent).
    fn parent_of<'p>(
        &mut self,
        path: &'p str,
        create: bool,
    ) -> Option<(&mut BTreeMap<String, Node>, &'p str)> {
        let mut segs = normalize_path(path).peekable();
        let mut cur = &mut self.root;
        while let Some(seg) = segs.next() {
            let Node::Dir(children) = cur else {
                return None;
            };
            if segs.peek().is_none() {
                return Some((children, seg));
            }
            if create && !children.contains_key(seg) {
                children.insert(seg.to_string(), Node::empty_dir());
            }
            cur = children.get_mut(seg)?;
        }
        None
    }

    /// Inserts (or replaces) `node` at `path`, creating parent directories.
    /// Fails (returns `false`) if a parent path component is a file, or the
    /// path is the root.
    pub fn insert(&mut self, path: &str, node: Node) -> bool {
        match self.parent_of(path, true) {
            Some((children, name)) => {
                children.insert(name.to_string(), node);
                true
            }
            None => false,
        }
    }

    /// Removes and returns the node at `path` (file or whole directory).
    pub fn remove(&mut self, path: &str) -> Option<Node> {
        let (children, name) = self.parent_of(path, false)?;
        children.remove(name)
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
        let segs = |p| normalize_path(p).collect::<Vec<_>>();
        assert_eq!(segs("/a//b/./c/"), vec!["a", "b", "c"]);
        assert_eq!(segs("a/../b"), vec!["b"]);
        assert_eq!(segs("../a"), vec!["a"]);
        assert_eq!(segs("a/../../b/c/.."), vec!["b"]);
        assert_eq!(segs("/a/b/../../c/./d/../e"), vec!["c", "e"]);
        assert!(segs("/").is_empty());
        assert!(segs("a/b/../..").is_empty());
        assert_eq!(normalize_path("//x/./y/../z/").joined(), "x/z");
    }

    #[test]
    fn normalize_matches_a_segment_stack() {
        // Every path of up to five segments over these.
        const SEGS: [&str; 5] = ["", ".", "..", "a", "b"];
        let mut paths = vec![String::new()];
        for len in 1..=5u32 {
            for mut code in 0..SEGS.len().pow(len) {
                let mut path = Vec::new();
                for _ in 0..len {
                    path.push(SEGS[code % SEGS.len()]);
                    code /= SEGS.len();
                }
                paths.push(path.join("/"));
            }
        }
        for path in paths {
            let mut stack = Vec::new();
            for seg in path.split('/') {
                match seg {
                    "" | "." => {}
                    ".." => {
                        stack.pop();
                    }
                    s => stack.push(s),
                }
            }
            assert_eq!(normalize_path(&path).collect::<Vec<_>>(), stack, "{path:?}");
        }
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
