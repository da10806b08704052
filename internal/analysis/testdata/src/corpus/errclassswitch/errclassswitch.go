// Package hvac seeds a non-exhaustive errClass switch. Until commit
// 4e432c0, internal/hvac/client.go's retry switch let classConn fall
// to its default clause, so a class added to the enum would inherit
// whatever bucket the default encoded. errclass found it in that
// commit, and the switch now names every class.
package hvac

import "errors"

type errClass uint8

const (
	classOK errClass = iota
	classApp
	classTimeout
	classConn
	classCtx
)

var errRetry = errors.New("retry")

type Client struct{ evidence map[string]int }

func (c *Client) noteTimeout(node string) { c.evidence[node]++ }

// settle turns one classified node read into the caller's outcome.
func (c *Client) settle(node string, class errClass, err error) error {
	switch class {
	case classOK:
		return nil
	case classTimeout:
		c.noteTimeout(node)
		return err
	case classApp, classCtx:
		return err
	default:
		return errRetry
	}
}
