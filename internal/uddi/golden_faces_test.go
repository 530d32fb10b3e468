package uddi

import (
	"net/http"

	"homeconnect/internal/transport"
)

// goldenXMLFace and goldenBinFace are the unrestricted registry faces the
// golden-bytes transcripts are recorded against.
func goldenXMLFace(s *Server) http.Handler { return s.Handler(Face{}) }

func goldenBinFace(s *Server) transport.BinHandler { return s.BinHandler(Face{}) }
