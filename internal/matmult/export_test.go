package matmult

import "powermanna/internal/node"

// RunPerElement is Run on one CPU with same-line hit runs off: every
// multiply iteration goes through Proc.Access.
func RunPerElement(nd *node.Node, n int, v Version) Result { return run(nd, n, v, 1, false) }
