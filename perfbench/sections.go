package main

import (
	"fmt"
	"strings"
)

// parseSections splits a sweep transcript (the format of
// experiments_output.txt: each experiment's table text preceded by a
// "\n### <name>\n" header) into name -> table text. The text is exactly
// what `sgxbench -experiment <name>` prints on its own.
func parseSections(transcript string) (map[string]string, error) {
	out := map[string]string{}
	const marker = "\n### "
	if !strings.HasPrefix(transcript, marker) {
		return nil, fmt.Errorf("transcript does not start with a %q header", strings.TrimSpace(marker))
	}
	rest := transcript
	for rest != "" {
		if !strings.HasPrefix(rest, marker) {
			return nil, fmt.Errorf("expected a section header, found %.20q", rest)
		}
		rest = rest[len(marker):]
		nl := strings.IndexByte(rest, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("unterminated section header %q", rest)
		}
		name := rest[:nl]
		rest = rest[nl+1:]
		end := strings.Index(rest, marker)
		if end < 0 {
			end = len(rest)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("duplicate section %q", name)
		}
		out[name] = rest[:end]
		rest = rest[end:]
	}
	return out, nil
}
