"""Host-time benchmark of the streamline reproduction (see README.md)."""
