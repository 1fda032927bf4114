package xmltree

import "errors"

// MaxNodes bounds the tree a schema front-end may build from one document.
// Named types, content models and $refs that reference the next
// declaration several times grow a tree exponentially in the document
// size, so every front-end counts the nodes it creates and fails past this
// bound before the expansion gets expensive.
const MaxNodes = 1 << 16

// ErrTooLarge reports a schema whose tree would exceed MaxNodes. Every
// front-end's bound error wraps it, so callers match it with errors.Is.
var ErrTooLarge = errors.New("schema too large")
