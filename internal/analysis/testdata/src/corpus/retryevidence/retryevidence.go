// Package hvac seeds a retryable error fed to the failure detector.
// Conn-class failures are fast and retried in place; only a timeout,
// or a conn failure that exhausted its retries, is evidence. Until
// commit c005199, internal/hvac/client.go kept that split with a note
// flag threaded through three read stages, and that commit removed the
// flag by hand. Here a conn failure is noted before its retry, so a
// flapping connection reaches the detector's limit without a node
// failing.
package hvac

import "rpc"

type errClass uint8

const (
	classOK errClass = iota
	classApp
	classTimeout
	classConn
	classCtx
)

type Client struct {
	retry    rpc.RetryPolicy
	evidence map[string]int
}

func (c *Client) noteTimeout(node string) { c.evidence[node]++ }

func (c *Client) readOnce(node, path string) ([]byte, error, errClass) { return nil, nil, classOK }

// readNode is the node-read stage.
func (c *Client) readNode(node, path string) ([]byte, error) {
	for try := 0; ; try++ {
		data, err, class := c.readOnce(node, path)
		switch class {
		case classOK, classApp, classCtx:
			return data, err
		case classTimeout:
			c.noteTimeout(node)
			return nil, err
		case classConn:
			c.noteTimeout(node)
			if try < c.retry.Retries() {
				continue
			}
			return nil, err
		}
	}
}
